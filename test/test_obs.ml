(* Coverage Observatory tests: prime-path enumeration (directed units on
   textbook graphs with hand-checked counts, plus QCheck properties over
   random graphs), frontier attribution, observatory JSON, Prometheus
   exposition, and telemetry snapshot isolation. DESIGN.md §15. *)

let path_strings (paths : Cfg.paths) =
  Array.to_list paths.Cfg.all
  |> List.map (fun p ->
         String.concat "-"
           (Array.to_list (Array.map string_of_int p.Cfg.nodes)))
  |> List.sort compare

(* Diamond: 0 -> {1,2}, 1 -> 3, 2 -> 3. Prime paths: 0-1-3, 0-2-3. *)
let test_prime_diamond () =
  let cfg = Cfg.of_succs [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [ "0-1-3"; "0-2-3" ]
    (path_strings paths)

(* While loop: 0 -> 1; 1 -> {2,3}; 2 -> 1. Prime paths (Ammann–Offutt):
   0-1-2, 0-1-3, 2-1-3, 1-2-1, 2-1-2. *)
let test_prime_while () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2; 3 ]; [ 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [ "0-1-2"; "0-1-3"; "1-2-1"; "2-1-2"; "2-1-3" ]
    (path_strings paths)

(* Nested loop:
     0 -> 1            entry
     1 -> {2,5}        outer header
     2 -> {3,4}        inner header
     3 -> 2            inner latch
     4 -> 1            outer latch
     5: exit
   Hand enumeration of maximal simple paths and simple cycles:
     dead-ends: 0-1-2-3 (3 -> 2 revisits), 0-1-2-4 is extendable to
       0-1-2-4 -> 1? revisits 1... so 0-1-2-4 dead-ends too; 0-1-5;
       0-1-2-3 and 0-1-2-4 and 3-2-4-1-5? start from 3: 3-2-4-1-5.
     cycles: 1-2-4-1, 2-4-1-2, 4-1-2-4, 2-3-2, 3-2-3, and rotations of the
       inner loop through the outer: 1-2-3? 3 -> 2 not 1, so no.
     other maximal simple paths: 3-2-4-1-5, 4-1-2-3, 0-1-2-3, 0-1-2-4,
       0-1-5, 3-2-4-1-5.
   Full set (9): 0-1-2-3, 0-1-2-4, 0-1-5, 1-2-4-1, 2-3-2, 2-4-1-2, 3-2-3,
     3-2-4-1-5, 4-1-2-3, 4-1-2-4.  That is 10 — verified below against the
     enumerator plus the subpath filter by hand:
     - 0-1-2-3: simple, 3's only succ 2 is visited -> maximal. prime.
     - 0-1-2-4: 4's succ 1 visited -> maximal. prime? contained in no other
       (paths through 0 must start at 0; 0-1-2-4 extended by 1 impossible).
     - 0-1-5: 5 exit -> maximal; not a subpath of anything longer (any
       superpath must prepend before 0: none). prime.
     - 4-1-2-3: simple, 3's succ 2 visited -> maximal; not a subpath (no
       edge into 4 except 2, and 2 already inside). Wait: 2 -> 4 exists, but
       2 is in the path, so no simple superpath. prime.
     - 3-2-4-1-5: maximal (5 exit); superpath would prepend 2 before 3 but
       2 is inside. prime.
     - cycles: 1-2-4-1, 2-4-1-2, 4-1-2-4 (outer, 3 rotations), 2-3-2,
       3-2-3 (inner, 2 rotations). All prime by definition.
   Total: 5 simple-path primes + 5 cycle primes = 10. *)
let test_prime_nested () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2; 5 ]; [ 3; 4 ]; [ 2 ]; [ 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [
      "0-1-2-3";
      "0-1-2-4";
      "0-1-5";
      "1-2-4-1";
      "2-3-2";
      "2-4-1-2";
      "3-2-3";
      "3-2-4-1-5";
      "4-1-2-3";
      "4-1-2-4";
    ]
    (path_strings paths)

(* Straight line: one prime path, the whole chain. *)
let test_prime_chain () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check (list string)) "prime paths" [ "0-1-2" ] (path_strings paths)

(* Self loop: 0 -> {0,1}. Primes: 0-0 (the self cycle) and 0-1. *)
let test_prime_self_loop () =
  let cfg = Cfg.of_succs [| [ 0; 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check (list string))
    "prime paths" [ "0-0"; "0-1" ] (path_strings paths)

(* Truncation is reported, never silent: a dense graph under a tiny budget
   must set [truncated] > 0. *)
let test_prime_truncation () =
  let n = 9 in
  let succs =
    Array.init n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))
  in
  let cfg = Cfg.of_succs succs in
  let paths = Cfg.enumerate ~max_paths:50 cfg in
  Alcotest.(check bool) "truncated > 0" true (paths.Cfg.truncated > 0)

(* QCheck: prime paths of a random graph are simple (no repeated interior
   node), pairwise non-subpath, and every edge they traverse exists. *)
let gen_graph =
  QCheck.Gen.(
    sized_size (int_range 2 7) (fun n ->
        let* succs =
          array_repeat n
            (list_size (int_range 0 3) (int_range 0 (max 0 (n - 1))))
        in
        return (Array.map (List.sort_uniq compare) succs)))

let arb_graph =
  QCheck.make gen_graph ~print:(fun succs ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun l -> String.concat "," (List.map string_of_int l))
              succs)))

let prop_primes_simple =
  QCheck.Test.make ~name:"prime paths are simple and edges exist" ~count:200
    arb_graph (fun succs ->
      let cfg = Cfg.of_succs succs in
      let paths = Cfg.enumerate ~max_paths:2_000 cfg in
      Array.for_all
        (fun (p : Cfg.prime) ->
          let nodes = p.Cfg.nodes in
          let len = Array.length nodes in
          let interior_simple =
            let seen = Hashtbl.create 8 in
            let ok = ref true in
            for i = 0 to len - 1 do
              (* first = last is allowed (cycle); any other repeat is not *)
              if Hashtbl.mem seen nodes.(i) then
                if not (i = len - 1 && nodes.(i) = nodes.(0)) then ok := false;
              Hashtbl.replace seen nodes.(i) ()
            done;
            !ok
          in
          let edges_exist =
            let ok = ref true in
            for i = 0 to len - 2 do
              if not (List.mem nodes.(i + 1) succs.(nodes.(i))) then
                ok := false
            done;
            !ok
          in
          interior_simple && edges_exist)
        paths.Cfg.all)

let prop_primes_maximal =
  QCheck.Test.make ~name:"prime paths are pairwise non-subpath" ~count:100
    arb_graph (fun succs ->
      let cfg = Cfg.of_succs succs in
      let paths = Cfg.enumerate ~max_paths:2_000 cfg in
      QCheck.assume (paths.Cfg.truncated = 0);
      let seqs = Array.map (fun p -> p.Cfg.nodes) paths.Cfg.all in
      let is_subpath sub sup =
        let ls = Array.length sub and lp = Array.length sup in
        ls < lp
        && begin
             let found = ref false in
             for i = 0 to lp - ls do
               let ok = ref true in
               for j = 0 to ls - 1 do
                 if sup.(i + j) <> sub.(j) then ok := false
               done;
               if !ok then found := true
             done;
             !found
           end
      in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              (* cycles may not be subpaths either, by primality *)
              not (is_subpath a b))
            seqs)
        seqs)

(* ---- Observatory snapshots ----------------------------------------------- *)

(* One observed run of a registry workload: arm the engine-side bookkeeping,
   run, snapshot, disarm. *)
let observed_snapshot ?(mode = Pe_config.Standard) name =
  let workload = Registry.find name in
  let compiled = Workload.compile workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input
      compiled.Compile.program
  in
  let config = Workload.pe_config ~mode workload in
  Pe_config.set_obs_enabled true;
  Fun.protect
    ~finally:(fun () -> Pe_config.set_obs_enabled false)
    (fun () ->
      let result = Engine.run ~config machine in
      Obs.snapshot
        ~label:(name ^ "/" ^ Pe_config.mode_name mode)
        ~program:compiled.Compile.program ~machine ~result ~config)

let json_of snap =
  match Jsonu.parse (Obs.to_json snap) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg

let jint v name =
  match Jsonu.member name v with
  | Some (Jsonu.Num n) -> int_of_float n
  | _ -> Alcotest.failf "missing integer member %s" name

let known_cause c =
  List.mem c
    [ "site-unreached"; "spawn-budget"; "no-spawning"; "spawn-threshold";
      "nt-unattributed" ]
  || (String.length c > 14 && String.sub c 0 14 = "nt-terminated:")

(* The structural invariants every snapshot must satisfy: the frontier is
   exactly the uncovered edges, each with one recognised cause; the cause
   histogram sums back to the frontier; prime-path coverage is a count out
   of the enumerated universe. *)
let test_snapshot_invariants () =
  let v = json_of (observed_snapshot "print_tokens2") in
  Alcotest.(check int) "schema" Obs.schema_version (jint v "schema");
  let edges = Option.get (Jsonu.member "edges" v) in
  let frontier =
    match Jsonu.member "frontier" v with
    | Some (Jsonu.Arr l) -> l
    | _ -> Alcotest.fail "frontier must be an array"
  in
  Alcotest.(check int) "frontier = universe - combined"
    (jint edges "universe" - jint edges "combined")
    (List.length frontier);
  List.iter
    (fun entry ->
      match Jsonu.member "cause" entry with
      | Some (Jsonu.Str c) ->
        Alcotest.(check bool) ("known cause " ^ c) true (known_cause c)
      | _ -> Alcotest.fail "frontier entry must carry a string cause")
    frontier;
  (match Jsonu.member "frontier_causes" v with
   | Some (Jsonu.Obj causes) ->
     let total =
       List.fold_left
         (fun acc (c, n) ->
           Alcotest.(check bool) ("known cause " ^ c) true (known_cause c);
           match n with Jsonu.Num n -> acc + int_of_float n | _ -> acc)
         0 causes
     in
     Alcotest.(check int) "causes sum to frontier" (List.length frontier)
       total
   | _ -> Alcotest.fail "frontier_causes must be an object");
  let pp = Option.get (Jsonu.member "prime_paths" v) in
  let enumerated = jint pp "enumerated" and covered = jint pp "covered" in
  Alcotest.(check bool) "0 <= covered <= enumerated" true
    (0 <= covered && covered <= enumerated);
  Alcotest.(check bool) "some prime paths enumerated" true (enumerated > 0)

(* Baseline mode never spawns: every executed-but-uncovered edge must be
   attributed to no-spawning, and nothing to an NT-Path. Standard mode has
   spawning, so no-spawning must not appear. *)
let test_attribution_modes () =
  let causes_of mode =
    match
      Jsonu.member "frontier_causes"
        (json_of (observed_snapshot ~mode "print_tokens2"))
    with
    | Some (Jsonu.Obj causes) -> List.map fst causes
    | _ -> Alcotest.fail "frontier_causes must be an object"
  in
  let baseline = causes_of Pe_config.Baseline in
  Alcotest.(check bool) "baseline: no-spawning present" true
    (List.mem "no-spawning" baseline);
  List.iter
    (fun c ->
      Alcotest.(check bool) ("baseline cause " ^ c) true
        (c = "no-spawning" || c = "site-unreached"))
    baseline;
  let standard = causes_of Pe_config.Standard in
  Alcotest.(check bool) "standard: no-spawning absent" false
    (List.mem "no-spawning" standard)

(* Identical runs render identical snapshot bytes. *)
let test_snapshot_deterministic () =
  let a = Obs.to_json (observed_snapshot "schedule") in
  let b = Obs.to_json (observed_snapshot "schedule") in
  Alcotest.(check string) "snapshot bytes stable" a b

(* Collecting the Observatory channel arms the engine switch and yields
   one snapshot per experiment run; the switch is off again afterwards. *)
let test_capture_runs () =
  let (), snaps =
    Capture.collect Obs.capture (fun () ->
        Alcotest.(check bool) "engine switch on inside" true
          (Pe_config.obs_on ());
        ignore (Exp_common.run_app (Registry.find "schedule")))
  in
  Alcotest.(check bool) "engine switch off after" false (Pe_config.obs_on ());
  Alcotest.(check int) "one snapshot per run" 1 (List.length snaps);
  Alcotest.(check string) "labelled" "schedule/standard"
    (Obs.label (List.hd snaps))

(* ---- Deopt causes --------------------------------------------------------- *)

(* The fast tier stops before an access to a watched word; the Observatory
   must file that stop under [watch], not [fault]. The same iWatcher image
   runs twice in Baseline mode: with input "3" the loop stays inside [buf],
   with "4" it makes one more store, into the red zone. That store is the
   only extra stop, and it is a watch stop. *)
let test_deopt_watch_cause () =
  let source =
    {|
int smash(int n) {
  int buf[4];
  int i;
  for (i = 0; i <= n; i = i + 1) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(getc() - 48); }
|}
  in
  let compiled =
    Compile.compile
      ~options:{ Codegen.detector = Codegen.Iwatcher; fixing = true }
      source
  in
  let run input =
    let machine = Machine.create ~input compiled.Compile.program in
    Pe_config.set_obs_enabled true;
    Fun.protect
      ~finally:(fun () -> Pe_config.set_obs_enabled false)
      (fun () ->
        let config =
          { Pe_config.default with Pe_config.mode = Pe_config.Baseline }
        in
        ignore (Engine.run ~config machine));
    let c = Telemetry.counter machine.Machine.telemetry in
    ( c "obs.deopt.watch",
      c "obs.deopt.fault",
      Report.count machine.Machine.reports )
  in
  let watch_in, fault_in, reports_in = run "3" in
  let watch_hit, fault_hit, reports_hit = run "4" in
  Alcotest.(check int) "in bounds: no report" 0 reports_in;
  Alcotest.(check int) "overflow: one report" 1 reports_hit;
  Alcotest.(check (pair int int)) "no fault stops" (0, 0) (fault_in, fault_hit);
  Alcotest.(check bool) "watch/unwatch stops counted" true (watch_in > 0);
  Alcotest.(check int) "the red-zone store is one more watch stop"
    (watch_in + 1) watch_hit

(* ---- Prometheus exposition ------------------------------------------------ *)

let test_prometheus () =
  let t = Telemetry.create ~label:"app/standard" () in
  Telemetry.count t "nt.insns" 42;
  Telemetry.gauge t "fast.fraction" 0.5;
  Telemetry.observe t "spawn.len" 3;
  Telemetry.observe t "spawn.len" 200;
  let text = Telemetry.to_prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let ln = String.length needle and lt = String.length text in
         let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
         go 0))
    [
      "# TYPE pexp_nt_insns counter";
      {|pexp_nt_insns{run="app/standard"} 42|};
      {|pexp_fast_fraction{run="app/standard"} 0.5|};
      "# TYPE pexp_spawn_len histogram";
      {|pexp_spawn_len_count{run="app/standard"} 2|};
    ];
  Alcotest.(check string) "exposition deterministic" text
    (Telemetry.to_prometheus t)

(* ---- Collector snapshot isolation ---------------------------------------- *)

(* Regression: the global collector receives each run's sink exactly once,
   and nothing in the sweep funnel mutates a sink after submission — what a
   collector saw at submit time is what it holds at the end. (The sinks are
   shared by reference, and the capture computes its sort key only after
   the sweep; this pins that no engine/experiment code path writes to a
   submitted sink.) *)
let test_collector_snapshot_isolation () =
  let seen = ref [] in
  Telemetry.set_collector
    (Some (fun t -> seen := (t, Telemetry.to_json t) :: !seen));
  Fun.protect
    ~finally:(fun () -> Telemetry.set_collector None)
    (fun () ->
      ignore (Exp_common.run_app (Registry.find "schedule"));
      ignore (Exp_common.run_app (Registry.find "print_tokens")));
  let seen = List.rev !seen in
  Alcotest.(check int) "one submission per run" 2 (List.length seen);
  (match seen with
   | [ (t1, _); (t2, _) ] ->
     Alcotest.(check bool) "distinct sinks" false (t1 == t2)
   | _ -> ());
  List.iter
    (fun (t, at_submit) ->
      Alcotest.(check string)
        ("unchanged since submit: " ^ Telemetry.label t)
        at_submit (Telemetry.to_json t))
    seen

let tests =
  [
    Alcotest.test_case "prime: diamond" `Quick test_prime_diamond;
    Alcotest.test_case "prime: while loop" `Quick test_prime_while;
    Alcotest.test_case "prime: nested loop" `Quick test_prime_nested;
    Alcotest.test_case "prime: chain" `Quick test_prime_chain;
    Alcotest.test_case "prime: self loop" `Quick test_prime_self_loop;
    Alcotest.test_case "prime: truncation reported" `Quick
      test_prime_truncation;
    QCheck_alcotest.to_alcotest prop_primes_simple;
    QCheck_alcotest.to_alcotest prop_primes_maximal;
    Alcotest.test_case "snapshot: invariants" `Quick test_snapshot_invariants;
    Alcotest.test_case "snapshot: attribution by mode" `Quick
      test_attribution_modes;
    Alcotest.test_case "snapshot: deterministic bytes" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "snapshot: capture protocol" `Quick test_capture_runs;
    Alcotest.test_case "deopt cause: a watched word is a watch stop" `Quick
      test_deopt_watch_cause;
    Alcotest.test_case "telemetry: prometheus exposition" `Quick
      test_prometheus;
    Alcotest.test_case "telemetry: collector snapshot isolation" `Quick
      test_collector_snapshot_isolation;
  ]
