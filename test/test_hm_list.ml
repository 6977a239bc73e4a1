(* Harris-Michael list: the generic battery over every SMR scheme plus the
   baseline-specific behaviour — eager unlinking of marked nodes during any
   traversal, including Search. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let builder = Harness.Instance.find_builder_exn "HMList"

module L = Scot.Harris_michael_list.Make (Smr.Hp)

let mk () =
  let smr =
    Smr.Hp.create ~threads:1 ~slots:Scot.Harris_michael_list.slots_needed ()
  in
  let t = L.create ~smr ~threads:1 () in
  (t, L.handle t ~tid:0)

let test_sequential_churn () =
  let t, h = mk () in
  for i = 0 to 999 do
    ignore (L.insert h (i mod 37))
  done;
  check_int "37 distinct keys" 37 (L.size t);
  for i = 0 to 999 do
    ignore (L.delete h (i mod 37))
  done;
  check_int "empty" 0 (L.size t);
  L.check_invariants t;
  L.quiesce h;
  check_int "limbo drained" 0 (L.unreclaimed t)

(* Unlike Harris' list, a *search* in the Harris-Michael list physically
   unlinks marked nodes it encounters: after delete + search, the retired
   node count grows even without further updates. *)
let test_search_unlinks () =
  let t, h = mk () in
  List.iter (fun k -> assert (L.insert h k)) [ 1; 2; 3 ];
  check "delete marks and unlinks" true (L.delete h 2);
  check "search still correct" false (L.search h 2);
  check "remaining keys" true (L.to_list t = [ 1; 3 ]);
  L.check_invariants t

let test_key_bounds () =
  let _, h = mk () in
  match L.insert h max_int with
  | _ -> Alcotest.fail "max_int key must be rejected"
  | exception Invalid_argument _ -> ()

(* Hazard-role rotation: every hop rotates slot roles, and the eager
   unlink swaps curr and next, so no traversal of this list makes a [dup]
   (it has no first-unsafe-node slot to copy into). *)
module D = Test_support.Dup_count.Make (Smr.Hp)
module LD = Scot.Harris_michael_list.Make (D)

let mk_counted keys =
  let smr =
    D.create ~threads:2 ~slots:Scot.Harris_michael_list.slots_needed ()
  in
  let t = LD.create ~smr ~threads:2 () in
  let hs = Array.init 2 (fun tid -> LD.handle t ~tid) in
  List.iter (fun k -> assert (LD.insert hs.(0) k)) keys;
  (t, hs)

let test_unmarked_search_no_dup () =
  let n = 64 in
  let _, hs = mk_counted (List.init n (fun i -> 2 * i)) in
  let found, dups =
    D.counting_dups (fun () ->
        List.for_all (fun i -> LD.search hs.(0) (2 * i)) (List.init n Fun.id))
  in
  check "every key found" true found;
  check_int "searches over an unmarked list make no dup" 0 dups

(* [delete 30] is paused right after the protect that reaches 30 and h1
   inserts 25 ahead of it, so the delete's unlink CAS fails and its
   cleanup traversal crosses the marked 30 and unlinks it eagerly. *)
let test_eager_unlink_no_dup () =
  let t, hs = mk_counted [ 10; 20; 30; 40 ] in
  (* protects of [delete 30]: head, 10.next, 20.next, 30.next *)
  D.after_protect 4 (fun () -> assert (LD.insert hs.(1) 25));
  let deleted, dups = D.counting_dups (fun () -> LD.delete hs.(0) 30) in
  D.clear_hook ();
  check "deleted" true deleted;
  check_int "the traversal that unlinks a marked node makes no dup" 0 dups;
  check_int "the cleanup traversal unlinked and retired 30" 1
    (LD.unreclaimed t);
  check "contents" true (LD.to_list t = [ 10; 20; 25; 40 ]);
  LD.check_invariants t

(* After every protect of the traversing thread, a writer on the same
   domain deletes a random key and flushes its limbo, while another domain
   churns.  Each round also deletes one key through the cleanup traversal,
   so the eager unlink runs under a flushing writer too.  Every node the
   flush frees is poisoned, so a role rotation that left a traversal's node
   unprotected raises [Use_after_free]. *)
let test_rotation_churn (module S : Smr.Smr_intf.S) () =
  let module D = Test_support.Dup_count.Make (S) in
  let module L = Scot.Harris_michael_list.Make (D) in
  let threads = 4 and range = 16 in
  let smr =
    D.create ~threads ~slots:Scot.Harris_michael_list.slots_needed ()
  in
  let t = L.create ~smr ~threads () in
  let traverser = L.handle t ~tid:0 and writer = L.handle t ~tid:1 in
  let inserter = L.handle t ~tid:2 and churner = L.handle t ~tid:3 in
  let rng = Random.State.make [| 11 |] in
  let flushing_writer () =
    ignore (L.delete writer (Random.State.int rng range));
    L.quiesce writer
  in
  (* Pause [delete k] right after its last protect (counted on a search of
     the same path), then insert or delete [k - 1], the node ahead of [k]:
     the unlink CAS fails and the cleanup traversal unlinks [k] eagerly.
     That traversal reaches [k] one protect later (or earlier); right after
     the protect that follows its unlink, the writer deletes and frees the
     keys just past [k], so the node that now follows [k] is freed unless
     the traversal still protects it. *)
  let delete_via_cleanup k =
    let n = ref 0 in
    D.set_hook (fun () -> incr n);
    let present = L.search traverser k in
    D.clear_hook ();
    if present then begin
      D.after_protect !n (fun () ->
          let inserted = L.insert inserter (k - 1) in
          if not inserted then ignore (L.delete inserter (k - 1));
          let m = if inserted then !n + 1 else !n - 1 in
          D.after_protect (m + 1) (fun () ->
              List.iter
                (fun j -> if j < range then ignore (L.delete writer j))
                [ k + 1; k + 2; k + 3 ];
              L.quiesce writer));
      ignore (L.delete traverser k);
      D.clear_hook ()
    end
  in
  let even () = 2 * (1 + Random.State.int rng ((range / 2) - 1)) in
  let stop = Atomic.make false in
  Memory.Fault.with_checking true (fun () ->
      let d =
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 7 |] in
            while not (Atomic.get stop) do
              let k = Random.State.int rng range in
              if Random.State.bool rng then ignore (L.insert churner k)
              else ignore (L.delete churner k)
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          D.clear_hook ();
          Atomic.set stop true;
          Domain.join d)
        (fun () ->
          for _ = 1 to 4_000 do
            for _ = 1 to 4 do
              ignore (L.insert writer (even ()))
            done;
            delete_via_cleanup (even ());
            D.set_hook flushing_writer;
            ignore (L.search traverser (Random.State.int rng range));
            D.clear_hook ()
          done));
  L.check_invariants t;
  let l = L.to_list t in
  check (S.name ^ ": contents sorted and in range") true
    (List.sort_uniq compare l = l
    && List.for_all (fun k -> k >= 0 && k < range) l)

let () =
  Alcotest.run "harris_michael_list"
    (Test_support.Ds_tests.full_suite builder
    @ [
        ( "hm-specific",
          [
            Alcotest.test_case "sequential churn drains limbo" `Quick
              test_sequential_churn;
            Alcotest.test_case "search unlinks marked nodes" `Quick
              test_search_unlinks;
            Alcotest.test_case "key bounds" `Quick test_key_bounds;
          ] );
        ( "role-rotation",
          [
            Alcotest.test_case "unmarked search makes no dup" `Quick
              test_unmarked_search_no_dup;
            Alcotest.test_case "eager unlink makes no dup" `Quick
              test_eager_unlink_no_dup;
          ]
          @ List.map
              (fun name ->
                Alcotest.test_case
                  (Printf.sprintf "churn with flushing writer (%s)" name)
                  `Quick
                  (test_rotation_churn (Smr.Registry.find_exn name)))
              [ "HP"; "HPopt"; "HE" ] );
      ])
