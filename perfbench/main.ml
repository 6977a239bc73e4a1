(* perfbench: run one workload, check every result, print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--nproc N] [--git-rev REV]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
   (and writes the traced rungs' spans to _perfbench/spans-NAME.tsv).  Every
   metric is printed by name with its unit; the last line is one JSON
   object {correct, attempted, failed, metrics}.  Exits 1 when a
   correctness check fails, 2 on bad arguments. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and nproc = ref "unknown" and git_rev = ref "unknown" in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ( "--workload",
           Arg.Set_string workload,
           "NAME  one of " ^ String.concat ", " Perfbench.Workloads.names );
         ("--seed", Arg.Set_int seed, "N  inputs seed");
         ("--seconds", Arg.Set_float seconds, "S  measured seconds");
         ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer run");
         ("--nproc", Arg.Set_string nproc, "N  host CPU count, for the record");
         ("--git-rev", Arg.Set_string git_rev, "REV  source revision, for the record");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg -> bad (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let w =
    match Perfbench.Workloads.find !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if not (!seconds > 0.) then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.name
    !seed !seconds !trace;
  Printf.printf
    "host nproc=%s recommended_domain_count=%d ocaml=%s git_rev=%s \
     clock=bechamel.monotonic_clock(CLOCK_MONOTONIC) client_domains=1\n%!"
    !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_rev;
  let r =
    if !trace = 0 then Perfbench.Bench.e2e w ~seed:!seed ~seconds:!seconds
    else begin
      let dir = "_perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let spans_out = Filename.concat dir ("spans-" ^ w.name ^ ".tsv") in
      Printf.printf "spans %s\n" spans_out;
      Perfbench.Bench.traced ~spans_out w ~seed:!seed ~seconds:!seconds
    end
  in
  let failed = Perfbench.Bench.failed r in
  List.iter
    (fun (mt : Perfbench.Bench.metric) ->
      Printf.printf "metric %-26s %16.4f %-9s%s\n" mt.name mt.value mt.unit
        (if mt.samples > 0 then Printf.sprintf " n=%d" mt.samples else ""))
    r.metrics;
  Printf.printf
    "metric %-26s %16.6f %-9s attempted=%d failed=%d use_after_free=%d\n"
    "error_rate"
    (float_of_int failed /. float_of_int r.attempted)
    "ratio" r.attempted failed
    (Perfbench.Bench.use_after_free r);
  List.iter (Printf.printf "dropped %s\n") r.notes;
  List.iter (Printf.printf "error %s\n") (Perfbench.Bench.errors r);
  let module J = Harness.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int r.attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (mt : Perfbench.Bench.metric) ->
                     ( mt.name,
                       J.Obj
                         [ ("value", J.Float mt.value); ("unit", J.String mt.unit) ]
                     ))
                   r.metrics) );
          ]));
  exit (if failed = 0 then 0 else 1)
