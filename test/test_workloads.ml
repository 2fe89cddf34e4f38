(* Workload integration tests: every application compiles and runs cleanly
   under every detector, and every planted bug behaves exactly as its
   metadata claims — undetected by the baseline on the default input,
   detected (or missed, for the engineered Section 7.1 categories) by
   PathExpander. This is Table 4 as a test suite. *)

let run_bug (workload : Workload.t) (bug : Bug.t) detector mode =
  let compiled = Workload.compile ~detector ~bug:bug.Bug.version workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let config = Workload.pe_config ~mode workload in
  let result = Engine.run ~config machine in
  (match result.Engine.outcome with
   | `Halted | `Exited _ -> ()
   | outcome ->
     Alcotest.failf "%s v%d: bad outcome %s" workload.Workload.name
       bug.Bug.version (Engine.outcome_name outcome));
  Analysis.detected (Analysis.analyze ~compiled ~machine ~bug)

let bug_case (workload : Workload.t) (bug : Bug.t) detector =
  let name =
    Printf.sprintf "%s v%d / %s" workload.Workload.name bug.Bug.version
      (Codegen.detector_name detector)
  in
  Alcotest.test_case name `Quick (fun () ->
      let baseline = run_bug workload bug detector Pe_config.Baseline in
      let pe = run_bug workload bug detector Pe_config.Standard in
      Alcotest.(check bool) (name ^ ": baseline misses it") false baseline;
      Alcotest.(check bool)
        (name ^ ": PathExpander outcome matches the engineered category")
        (bug.Bug.expected_miss = None)
        pe)

let all_bug_cases () =
  List.concat_map
    (fun (workload : Workload.t) ->
      List.concat_map
        (fun (bug : Bug.t) ->
          List.map
            (bug_case workload bug)
            (match bug.Bug.kind with
             | Bug.Memory -> [ Codegen.Ccured; Codegen.Iwatcher ]
             | Bug.Semantic -> [ Codegen.Assertions ]))
        workload.Workload.bugs)
    Registry.buggy_apps

let clean_run_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " clean run") `Quick (fun () ->
      List.iter
        (fun detector ->
          let compiled = Workload.compile ~detector workload in
          let machine =
            Machine.create ~input:workload.Workload.default_input
              compiled.Compile.program
          in
          let result = Engine.run ~config:Pe_config.baseline machine in
          (match result.Engine.outcome with
           | `Halted | `Exited 0 -> ()
           | outcome ->
             Alcotest.failf "%s/%s: %s" workload.Workload.name
               (Codegen.detector_name detector)
               (Engine.outcome_name outcome));
          (* the bug-free baseline run must be report-free *)
          Alcotest.(check int)
            (workload.Workload.name ^ " no reports without bugs")
            0
            (Report.count machine.Machine.reports))
        [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ])

let generated_inputs_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " generated inputs") `Quick
    (fun () ->
      let rng = Rng.create 99 in
      let compiled = Workload.compile workload in
      for _ = 1 to 5 do
        let input = workload.Workload.gen_input rng in
        let machine = Machine.create ~input compiled.Compile.program in
        let result = Engine.run ~config:Pe_config.baseline machine in
        match result.Engine.outcome with
        | `Halted | `Exited 0 -> ()
        | outcome ->
          Alcotest.failf "%s on generated input: %s" workload.Workload.name
            (Engine.outcome_name outcome)
      done)

let output_deterministic_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " deterministic") `Quick
    (fun () ->
      let compiled = Workload.compile workload in
      let out () =
        let machine =
          Machine.create ~input:workload.Workload.default_input
            compiled.Compile.program
        in
        ignore (Engine.run ~config:Pe_config.baseline machine);
        Machine.output machine
      in
      Alcotest.(check string) "same output twice" (out ()) (out ()))

let pe_preserves_output_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " PE preserves output") `Quick
    (fun () ->
      let compiled = Workload.compile workload in
      let out mode =
        let machine =
          Machine.create ~input:workload.Workload.default_input
            compiled.Compile.program
        in
        ignore (Engine.run ~config:(Workload.pe_config ~mode workload) machine);
        Machine.output machine
      in
      let baseline = out Pe_config.Baseline in
      Alcotest.(check string) "standard" baseline (out Pe_config.Standard);
      Alcotest.(check string) "cmp" baseline (out Pe_config.Cmp))

let test_registry_shape () =
  Alcotest.(check int) "38 bugs" 38 Registry.total_bugs;
  Alcotest.(check int) "7 buggy apps" 7 (List.length Registry.buggy_apps);
  Alcotest.(check int) "10 apps total" 10 (List.length Registry.all);
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool)
        (w.Workload.name ^ " has reasonable size")
        true
        (Workload.loc w > 100))
    Registry.all

let test_find () =
  Alcotest.(check string) "find by name" "164.gzip"
    (Registry.find "164.gzip").Workload.name;
  Alcotest.check_raises "unknown" (Invalid_argument "unknown workload 'zzz'")
    (fun () -> ignore (Registry.find "zzz"))

(* The compile memo is a bounded LRU: shrinking it evicts at once, a hit
   restamps its entry, and the least-recently-used entry goes first. *)
let test_compile_lru () =
  Workload.set_compile_cache_capacity 2;
  Fun.protect
    ~finally:(fun () -> Workload.set_compile_cache_capacity 128)
    (fun () ->
      Alcotest.(check bool) "capacity applies immediately" true
        (Workload.compile_cache_length () <= 2);
      let before = Workload.compile_cache_evictions () in
      let w = Registry.print_tokens2 in
      let c1 = Workload.compile ~bug:1 w in
      let c2 = Workload.compile ~bug:2 w in
      ignore c2;
      (* touching bug 1 makes it most-recently-used, so compiling a third
         variant evicts bug 2, not bug 1 *)
      let c1' = Workload.compile ~bug:1 w in
      Alcotest.(check bool) "hit returns the memoized instance" true
        (c1 == c1');
      let _ = Workload.compile ~bug:3 w in
      Alcotest.(check bool) "evictions counted" true
        (Workload.compile_cache_evictions () > before);
      Alcotest.(check bool) "bounded" true
        (Workload.compile_cache_length () <= 2);
      let c1'' = Workload.compile ~bug:1 w in
      Alcotest.(check bool) "lru survivor still memoized" true (c1 == c1''))

let tests =
  Alcotest.test_case "registry shape" `Quick test_registry_shape
  :: Alcotest.test_case "registry find" `Quick test_find
  :: Alcotest.test_case "bounded compile memo" `Quick test_compile_lru
  :: (List.map clean_run_case Registry.all
     @ List.map output_deterministic_case Registry.all
     @ List.map pe_preserves_output_case Registry.all
     @ List.map generated_inputs_case Registry.all
     @ all_bug_cases ())
