(* The machine-part pool: a recycled cache, BTB or address space must be
   indistinguishable from a fresh one, a released machine parks each part
   once, and address spaces are shared across images whose globals
   segments differ. *)

let qtest = QCheck_alcotest.to_alcotest

(* --- caches ---------------------------------------------------------------- *)

type cache_result = Outcome of Cache.outcome | Lines of int

let run_cache cache ops =
  List.map
    (function
      | Test_cache_props.Access (addr, owner, write, allocate) ->
        Outcome (Cache.access ~owner ~write ~allocate cache addr)
      | Test_cache_props.Squash owner -> Lines (Cache.gang_invalidate cache ~owner)
      | Test_cache_props.Commit owner -> Lines (Cache.commit_owner cache ~owner)
      | Test_cache_props.Owned owner -> Lines (Cache.owned_lines cache ~owner))
    ops

let cache_state c =
  ( (Cache.hits c, Cache.misses c, Cache.memo_hits c, Cache.filter_hits c),
    Cache.snapshot c )

(* Dirty a cache (recorder attached, fast path possibly off), clear it as
   the pool does, then drive it and a fresh cache with the same second
   sequence: every outcome, counter and raw line state (LRU stamps
   included) must agree, and the old recorder must hear nothing more. *)
let prop_recycled_cache_is_fresh =
  QCheck.Test.make ~name:"recycled cache behaves like a fresh one" ~count:200
    QCheck.(triple Test_cache_props.ops_arb Test_cache_props.ops_arb bool)
    (fun (dirty, ops, fastpath) ->
      let recycled = Test_cache_props.fresh_cache () in
      let old_recorder = Recorder.create () in
      Cache.set_recorder recycled old_recorder;
      Cache.set_fastpath recycled fastpath;
      ignore (run_cache recycled dirty);
      Cache.clear recycled;
      let heard = Recorder.total old_recorder in
      let fresh = Test_cache_props.fresh_cache () in
      run_cache recycled ops = run_cache fresh ops
      && cache_state recycled = cache_state fresh
      && Recorder.total old_recorder = heard)

(* --- BTB ------------------------------------------------------------------- *)

type btb_op = Counts of int | Exercise of int * bool | Lookup_exercise of int * bool

let btb_ops_arb =
  let open QCheck.Gen in
  let pc = int_bound 63 in
  QCheck.make
    (list_size (int_range 1 120)
       (oneof
          [
            map (fun p -> Counts p) pc;
            map2 (fun p t -> Exercise (p, t)) pc bool;
            map2 (fun p t -> Lookup_exercise (p, t)) pc bool;
          ]))

let run_btb btb ops =
  List.map
    (function
      | Counts pc -> Btb.counts btb pc
      | Exercise (pc, taken) ->
        Btb.exercise btb pc ~taken;
        (-1, -1)
      | Lookup_exercise (pc, taken) ->
        Btb.lookup_exercise btb pc ~taken;
        (-2, -2))
    ops

let btb_state btb =
  ( (Btb.lookups btb, Btb.miss_count btb),
    (Btb.valid_entries btb, Btb.saturated_entries btb),
    List.init 64 (Btb.probe_counts btb) )

(* 16 entries, 2-way, 64 branch pcs: sets conflict and evict, so a stale
   valid entry or LRU order would change hits, victims or counters in the
   second sequence. *)
let prop_recycled_btb_is_fresh =
  QCheck.Test.make ~name:"recycled BTB behaves like a fresh one" ~count:200
    (QCheck.pair btb_ops_arb btb_ops_arb) (fun (dirty, ops) ->
      let recycled = Btb.create ~entries:16 ~assoc:2 in
      ignore (run_btb recycled dirty);
      Btb.clear recycled;
      let fresh = Btb.create ~entries:16 ~assoc:2 in
      run_btb recycled ops = run_btb fresh ops
      && btb_state recycled = btb_state fresh)

(* --- machines -------------------------------------------------------------- *)

let halt_program ~globals_words =
  Program.make ~code:[| Insn.Halt |] ~entry:0 ~globals_words ~init_data:[]
    ~sites:[||] ~user_branches:[] ~functions:[] ~user_code_ranges:[]
    ~fix_atoms:[] ~global_vars:[] ~blank_addrs:[] ~source_lines:[||]

(* A second release must not park the parts again: if it did, two later
   machines would take the same L2, BTB, address space or L1. *)
let test_release_twice_parks_once () =
  let program = halt_program ~globals_words:8 in
  let m = Machine.create program in
  ignore (Machine.main_context m);
  Machine.release m;
  Machine.release m;
  let a = Machine.create program and b = Machine.create program in
  Alcotest.(check bool) "the next machine takes the parked L2" true
    (a.Machine.l2 == m.Machine.l2);
  Alcotest.(check bool) "distinct L2s" false (a.Machine.l2 == b.Machine.l2);
  Alcotest.(check bool) "distinct BTBs" false (a.Machine.btb == b.Machine.btb);
  Alcotest.(check bool) "distinct address spaces" false
    (a.Machine.mem.Memory.words == b.Machine.mem.Memory.words);
  Alcotest.(check bool) "distinct L1s" false
    (Machine.new_l1 a == Machine.new_l1 b);
  Machine.release a;
  Machine.release b

(* Two images whose globals segments differ share one parked address
   space; it comes back all-zero, and bounds are the layout's, not the
   (longer) array's. *)
let test_address_space_shared_across_images () =
  let big = Machine.create (halt_program ~globals_words:300) in
  let words = big.Machine.mem.Memory.words in
  let heap = big.Machine.mem.Memory.heap_base in
  let top = big.Machine.mem.Memory.stack_base - 1 in
  Memory.write big.Machine.mem (heap + 5) 7;
  Memory.write big.Machine.mem top 9;
  Machine.release big;
  let small = Machine.create (halt_program ~globals_words:200) in
  let mem = small.Machine.mem in
  Alcotest.(check bool) "one array for both images" true
    (mem.Memory.words == words);
  Alcotest.(check bool) "array longer than the layout" true
    (Array.length mem.Memory.words > Memory.size mem);
  Alcotest.(check int) "heap word zeroed" 0 (Memory.read mem (heap + 5));
  Alcotest.(check int) "stack word past the new layout zeroed" 0 words.(top);
  Alcotest.(check bool) "end of layout invalid" false
    (Memory.is_valid mem (Memory.size mem));
  Alcotest.check_raises "write at size faults"
    (Memory.Fault (Memory.Out_of_range (Memory.size mem)))
    (fun () -> Memory.write mem (Memory.size mem) 1);
  Machine.release small

let tests =
  [
    qtest prop_recycled_cache_is_fresh;
    qtest prop_recycled_btb_is_fresh;
    Alcotest.test_case "release twice parks once" `Quick
      test_release_twice_parks_once;
    Alcotest.test_case "address space shared across images" `Quick
      test_address_space_shared_across_images;
  ]
