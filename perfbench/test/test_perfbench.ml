(* Tests of the benchmark itself: its metric tables against BENCHMARK.json,
   that every workload emits them, that the correctness checker trips, and
   that the inputs are a function of the seed.  Workloads are shrunk so
   each run takes milliseconds. *)

module P = Perfbench
module B = Scot.Batch_op
module J = Harness.Json

let small (w : P.Workloads.t) = { w with range = min w.range 4096; setup_reps = 2 }
let workload name = small (Option.get (P.Workloads.find name))

let string = function J.String s -> s | _ -> Alcotest.fail "expected a string"

let declared section =
  let j =
    J.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  List.map
    (fun e -> (string (J.member_exn "name" e), string (J.member_exn "unit" e)))
    (Option.get (J.to_list (J.member_exn section j)))

let names_units (r : P.Bench.result) =
  List.map (fun (mt : P.Bench.metric) -> (mt.name, mt.unit)) r.metrics

let pair = Alcotest.(list (pair string string))

let test_tables () =
  Alcotest.check pair "end_to_end" (declared "end_to_end") P.Bench.end_to_end;
  Alcotest.check pair "per_layer" (declared "per_layer") P.Bench.per_layer;
  let j =
    J.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  Alcotest.(check (list string))
    "workloads" P.Workloads.names
    (List.map
       (fun e -> string (J.member_exn "name" e))
       (Option.get (J.to_list (J.member_exn "workloads" j))))

let value (r : P.Bench.result) name =
  (List.find (fun (mt : P.Bench.metric) -> mt.name = name) r.metrics).value

let test_emits name () =
  let w = workload name in
  let seconds = 0.2 in
  let r = P.Bench.e2e w ~seed:3 ~seconds in
  Alcotest.check pair "end-to-end metrics" P.Bench.end_to_end (names_units r);
  Alcotest.(check int) "e2e failures" 0 (P.Bench.failed r);
  (* The throughput is that of a window of [seconds], not of a stub. *)
  let window_ops = value r "throughput_ops_s" *. seconds in
  Alcotest.(check bool)
    (Printf.sprintf "%d ops attempted cover a %.0f-op window" r.attempted window_ops)
    true
    (float_of_int r.attempted >= 0.8 *. window_ops);
  let r = P.Bench.traced w ~seed:3 ~seconds:0.05 in
  Alcotest.check pair "per-layer metrics" P.Bench.per_layer (names_units r);
  Alcotest.(check int) "traced failures" 0 (P.Bench.failed r)

(* Drive [n] ops of list-hp through [call sut] and return the checker and
   the set-up. *)
let drive ?(n = 2000) call =
  let w = workload "list-hp" in
  let prefill = P.Workloads.prefill w ~seed:5 in
  let sut, _ = P.Drive.setup w ~prefill in
  let check = P.Check.create ~range:w.range ~prefill in
  let win = P.Drive.window () in
  P.Drive.direct win ~gen:(P.Workloads.stream w ~seed:5) ~check
    ~call:(call sut) ~gauge:sut.P.Drive.unreclaimed ~max_ops:n ~until_ns:max_int;
  (check, sut)

let test_flipped_search () =
  let searches = ref 0 in
  let flip sut kind key =
    let hit = sut.P.Drive.call kind key in
    if kind = B.get then incr searches;
    if kind = B.get && !searches = 100 then not hit else hit
  in
  let check, _ = drive flip in
  Alcotest.(check int) "one mismatch" 1 check.P.Check.mismatches;
  Alcotest.(check bool) "run fails" false (P.Check.ok check)

let test_size_mismatch () =
  let check, sut = drive (fun sut -> sut.P.Drive.call) in
  Alcotest.(check bool) "clean run passes" true (P.Check.ok check);
  P.Check.final check
    ~size:(fun () -> sut.P.Drive.size () + 1)
    ~check_invariants:sut.P.Drive.check_invariants;
  Alcotest.(check int) "size check fails" 1 check.P.Check.failed_checks;
  Alcotest.(check bool) "run fails" false (P.Check.ok check)

let ops w ~seed n =
  let g = P.Workloads.stream w ~seed in
  List.init n (fun _ ->
      let kind = P.Workloads.next_kind g in
      (kind, P.Workloads.next_key g))

let test_seeded () =
  List.iter
    (fun (w : P.Workloads.t) ->
      let same = Alcotest.(list (pair int int)) in
      Alcotest.check same "same seed, same stream" (ops w ~seed:7 5000)
        (ops w ~seed:7 5000);
      Alcotest.(check bool)
        "other seed, other stream" false
        (ops w ~seed:7 5000 = ops w ~seed:8 5000);
      Alcotest.(check (array int))
        "same seed, same prefill" (P.Workloads.prefill w ~seed:7)
        (P.Workloads.prefill w ~seed:7))
    P.Workloads.all

let test_percentiles () =
  let h = P.Hist.create () in
  for v = 1 to 100_000 do
    P.Hist.record h v
  done;
  let near want got =
    Alcotest.(check bool)
      (Printf.sprintf "%g within 0.4%% of %g" got want)
      true
      (Float.abs (got -. want) <= 0.004 *. want)
  in
  near 50_000. (P.Hist.percentile h 0.5);
  near 99_000. (P.Hist.percentile h 0.99);
  Alcotest.(check (float 0.)) "exact below 512" 7. (P.Hist.value_of (P.Hist.index 7))

let () =
  Alcotest.run "perfbench"
    [
      ("tables", [ Alcotest.test_case "tables match BENCHMARK.json" `Quick test_tables ]);
      ( "emits",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_emits name))
          P.Workloads.names );
      ( "check",
        [
          Alcotest.test_case "flipped search result" `Quick test_flipped_search;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "seeded op stream" `Quick test_seeded;
          Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
        ] );
    ]
