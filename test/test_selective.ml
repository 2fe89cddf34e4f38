(* Selective (fast/slow split) execution tests: the shift-mask regression,
   fault-arm audits, div-by-zero parity, BTB fused-operation equivalence,
   and the house invariant — every observable of a selective run is
   identical to the fully instrumented run, on the curated workloads and on
   randomly generated MiniC programs. *)

(* --- shift-mask regression -------------------------------------------------- *)

(* The shift amount is masked to the word size (63), not 62: a [land 62]
   mask zeroes bit 0, silently turning every odd shift amount into the next
   smaller even one — [shl x, 1] evaluated to [x]. Exercise both interpreter
   tiers' ALU evaluators on odd amounts. *)
let test_shift_mask () =
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Printf.sprintf "eval_binop shl by %d" s)
        (Some (3 lsl s))
        (Insn.eval_binop Insn.Shl 3 s);
      Alcotest.(check int)
        (Printf.sprintf "eval_alu shl by %d" s)
        (3 lsl s)
        (Decode.eval_alu Insn.Shl 3 s);
      Alcotest.(check (option int))
        (Printf.sprintf "eval_binop shr by %d" s)
        (Some (-4096 asr s))
        (Insn.eval_binop Insn.Shr (-4096) s);
      Alcotest.(check int)
        (Printf.sprintf "eval_alu shr by %d" s)
        (-4096 asr s)
        (Decode.eval_alu Insn.Shr (-4096) s))
    [ 1; 3; 5; 33; 63 ]

let run_minic ?(selective = true) ?(input = "") source =
  let compiled = Compile.compile source in
  let machine = Machine.create ~input compiled.Compile.program in
  let config = { Pe_config.default with Pe_config.selective } in
  let result = Engine.run ~config machine in
  (machine, result)

(* shl x,1 must double x end-to-end, through the fast tier and the
   instrumented tier alike. *)
let test_shift_end_to_end () =
  let source =
    "int main() { int x = getc(); print_int((x << 1) + (x << 5)); return 0; }"
  in
  (* x = 65: << 1 gives 130, << 5 gives 2080. A [land 62] mask would print
     65 + 2080 = 2145 (shift by 1 -> 0) or 130 + 1040 (shift by 5 -> 4). *)
  List.iter
    (fun selective ->
      let machine, result = run_minic ~selective ~input:"A" source in
      Alcotest.(check string)
        (Printf.sprintf "doubled (selective=%b)" selective)
        "2210" (Machine.output machine);
      Alcotest.(check string) "halted"
        (Engine.outcome_name `Halted)
        (Engine.outcome_name result.Engine.outcome))
    [ true; false ]

(* --- div-by-zero parity ------------------------------------------------------ *)

(* The fast tier checks the divisor *before* committing anything and defers
   the faulting instruction to the instrumented tier, so a division by zero
   must fault at the same retired-instruction count, with the same partial
   output, under both modes. *)
let test_div_by_zero_parity () =
  let source =
    "int main() { int d = getc(); print_int(7); print_int(100 / (d - 48));\n\
     return 0; }"
  in
  let m_off, r_off = run_minic ~selective:false ~input:"0" source in
  let m_on, r_on = run_minic ~selective:true ~input:"0" source in
  Alcotest.(check string) "faults"
    (Engine.outcome_name (`Faulted Cpu.Div_by_zero))
    (Engine.outcome_name r_off.Engine.outcome);
  Alcotest.(check string) "same outcome"
    (Engine.outcome_name r_off.Engine.outcome)
    (Engine.outcome_name r_on.Engine.outcome);
  Alcotest.(check int) "same insns" r_off.Engine.taken_insns
    r_on.Engine.taken_insns;
  Alcotest.(check int) "same cycles" r_off.Engine.taken_cycles
    r_on.Engine.taken_cycles;
  Alcotest.(check string) "same partial output" (Machine.output m_off)
    (Machine.output m_on)

(* --- fault-arm audits -------------------------------------------------------- *)

(* [Cpu.exec] must report a sandboxed syscall as [Ev_syscall] *without*
   executing it — the invariant that makes [Ev_exit] unreachable from
   NT-Path execution (Nt_path.run degrades it to an unsafe event rather
   than [assert false]). *)
let test_sandboxed_syscall_reported_not_executed () =
  let compiled = Compile.compile "int main() { exit(3); return 0; }" in
  let machine = Machine.create compiled.Compile.program in
  let ctx = Machine.main_context machine in
  let sandbox =
    Context.make_sandbox ~path_id:1 ~line_limit:4 ~words_per_line:4
  in
  Context.enter_sandbox ctx sandbox;
  let rec step_to_event n =
    if n > 1000 then Alcotest.fail "no syscall within 1000 steps"
    else
      match Cpu.step machine ctx with
      | Cpu.Ev_normal | Cpu.Ev_branch -> step_to_event (n + 1)
      | ev -> ev
  in
  (match step_to_event 0 with
   | Cpu.Ev_syscall Insn.Sys_exit -> ()
   | Cpu.Ev_exit _ -> Alcotest.fail "sandboxed exit was executed"
   | _ -> Alcotest.fail "expected Ev_syscall Sys_exit");
  Context.exit_sandbox ctx

(* A write-log sandbox rolls back from its log and has no line budget, so
   its writes can never overflow; only overlay writes can return false. *)
let test_sandbox_overflow_arms () =
  let mem = Memory.create ~globals_words:256 ~heap_words:1024 ~stack_words:256 in
  let overlay = Context.make_sandbox ~path_id:1 ~line_limit:1 ~words_per_line:4 in
  let a0 = Memory.null_guard in
  let a1 = Memory.null_guard + 64 in
  Alcotest.(check bool) "first line fits" true
    (Context.sandbox_write overlay mem a0 11);
  Alcotest.(check bool) "second line overflows" false
    (Context.sandbox_write overlay mem a1 22);
  (* overlay writes are buffered: memory unchanged either way *)
  Alcotest.(check int) "memory untouched" 0 (Memory.read mem a0);
  let wlog = Context.make_write_log_sandbox ~path_id:2 in
  let ok = ref true in
  for i = 0 to 63 do
    ok := !ok && Context.sandbox_write wlog mem (a0 + i) i
  done;
  Alcotest.(check bool) "write-log never overflows" true !ok

(* --- BTB fused operations ---------------------------------------------------- *)

let btb_ops_gen =
  QCheck.Gen.(list_size (int_bound 300) (pair (int_bound 40) bool))

let btb_state btb =
  let probes = List.init 41 (fun pc -> Btb.probe_counts btb pc) in
  (Btb.lookups btb, Btb.miss_count btb, Btb.valid_entries btb,
   Btb.saturated_entries btb, probes)

let prop_lookup_exercise_equiv =
  QCheck.Test.make ~name:"lookup_exercise = counts; exercise" ~count:100
    (QCheck.make btb_ops_gen) (fun ops ->
      let b1 = Btb.create ~entries:16 ~assoc:2 in
      let b2 = Btb.create ~entries:16 ~assoc:2 in
      List.iter
        (fun (pc, taken) ->
          ignore (Btb.counts b1 pc);
          Btb.exercise b1 pc ~taken;
          Btb.lookup_exercise b2 pc ~taken)
        ops;
      btb_state b1 = btb_state b2)

let prop_probe_exercise_equiv =
  QCheck.Test.make
    ~name:"probe_exercise = probe_counts, then lookup_exercise if rejected"
    ~count:100
    (QCheck.make QCheck.Gen.(pair (int_bound 16) btb_ops_gen))
    (fun (threshold, ops) ->
      let b1 = Btb.create ~entries:16 ~assoc:2 in
      let b2 = Btb.create ~entries:16 ~assoc:2 in
      let reference btb pc ~taken =
        match Btb.probe_counts btb pc with
        | None -> true
        | Some (tc, ntc) ->
          let forced = if taken then ntc else tc in
          if forced < threshold then true
          else begin
            Btb.lookup_exercise btb pc ~taken;
            false
          end
      in
      List.for_all
        (fun (pc, taken) ->
          Btb.probe_exercise b1 pc ~taken ~threshold
          = reference b2 pc ~taken)
        ops
      && btb_state b1 = btb_state b2)

(* --- selective/instrumented differential ------------------------------------- *)

(* Every observable of an engine run, bundled for structural comparison. *)
let observables machine (result : Engine.result) =
  ( Engine.outcome_name result.Engine.outcome,
    ( result.Engine.taken_insns,
      result.Engine.taken_branches,
      result.Engine.taken_stores,
      result.Engine.taken_cycles,
      result.Engine.total_cycles ),
    (result.Engine.spawns, result.Engine.skipped_spawns,
     result.Engine.profiled_overrides),
    ( Coverage.taken_edges result.Engine.coverage,
      Coverage.combined_edges result.Engine.coverage ),
    result.Engine.nt_records,
    Report.entries machine.Machine.reports,
    Watchpoints.triggers machine.Machine.watch,
    Machine.output machine )

let run_traced ~selective ~config ~input compiled =
  Capture.collect Recorder.capture (fun () ->
      let machine = Machine.create ~input compiled.Compile.program in
      let result =
        Engine.run ~config:{ config with Pe_config.selective } machine
      in
      (machine, result))

(* One program under one configuration: run fully instrumented and
   selectively, then demand identical observables — including the flight
   recorder's event stream. Returns the selective run. *)
let check_compiled name ~config ~input compiled =
  let (m_off, r_off), traces_off =
    run_traced ~selective:false ~config ~input compiled
  in
  let (m_on, r_on), traces_on =
    run_traced ~selective:true ~config ~input compiled
  in
  Alcotest.(check bool)
    (name ^ ": observables identical")
    true
    (observables m_off r_off = observables m_on r_on);
  Alcotest.(check (list string))
    (name ^ ": recorder streams identical")
    (List.map snd traces_off) (List.map snd traces_on);
  (m_on, r_on)

let check_differential name ?detector ?bug ~config workload =
  check_compiled name ~config ~input:workload.Workload.default_input
    (Workload.compile ?detector ?bug workload)

let test_differential_workloads () =
  let pt = Registry.print_tokens in
  let cfg = Workload.pe_config pt in
  (* Standard mode: the fast tier must both engage and deoptimize. *)
  let _, r_on = check_differential "standard" ~config:cfg pt in
  Alcotest.(check bool) "fast tier engaged" true (r_on.Engine.fast_insns > 0);
  Alcotest.(check bool) "fast tier deoptimized" true
    (r_on.Engine.fast_segments > 1);
  Alcotest.(check bool) "spawned" true (r_on.Engine.spawns > 0);
  (* Baseline and CMP modes. *)
  ignore
    (check_differential "baseline"
       ~config:{ cfg with Pe_config.mode = Pe_config.Baseline }
       pt);
  ignore
    (check_differential "cmp"
       ~config:(Workload.pe_config ~mode:Pe_config.Cmp pt)
       pt);
  (* A detector filing NT-Path reports. *)
  ignore
    (check_differential "ccured bug" ~detector:Codegen.Ccured ~bug:10
       ~config:(Workload.pe_config Registry.print_tokens2)
       Registry.print_tokens2);
  (* iWatcher: armed watchpoints no longer pin a run to the instrumented
     tier, so the fast tier must stop before exactly the accesses to
     watched words. The planted program hits a global's red zone on the
     taken path, and its cold edge's NT-Path hits a local array's red zone
     and squashes the journaled watch that armed it. *)
  let red_zones =
    Compile.compile
      ~options:{ Codegen.detector = Codegen.Iwatcher; fixing = true }
      Programs.red_zones
  in
  let from_nt (r : Report.entry) =
    match r.Report.origin with
    | Report.Nt_path _ -> true
    | Report.Taken_path -> false
  in
  let armed_after =
    List.map
      (fun mode ->
        let name = "iwatcher red zones, " ^ Pe_config.mode_name mode in
        let config = { Pe_config.default with Pe_config.mode } in
        let m_on, r_on = check_compiled name ~config ~input:"a" red_zones in
        let reports = Report.entries m_on.Machine.reports in
        Alcotest.(check bool) (name ^ ": taken-path hit") true
          (List.exists (fun r -> not (from_nt r)) reports);
        Alcotest.(check bool) (name ^ ": NT-Path hit")
          (mode <> Pe_config.Baseline)
          (List.exists from_nt reports);
        Alcotest.(check bool) (name ^ ": fast tier engaged") true
          (r_on.Engine.fast_insns > r_on.Engine.taken_insns / 2);
        Watchpoints.count m_on.Machine.watch)
      [ Pe_config.Baseline; Pe_config.Standard; Pe_config.Cmp ]
  in
  (* Every NT-Path's watches were undone at its squash: the ranges left
     armed are the taken path's, the same in every mode. *)
  Alcotest.(check (list int)) "squash leaves no NT-Path watch armed"
    (List.map (fun _ -> List.hd armed_after) armed_after)
    armed_after;
  ignore
    (check_differential "iwatcher bug, cmp" ~detector:Codegen.Iwatcher ~bug:10
       ~config:(Workload.pe_config ~mode:Pe_config.Cmp Registry.print_tokens2)
       Registry.print_tokens2)

(* The per-branch-action configurations deoptimize at *every* branch
   (threshold = max_int) instead of disabling the fast tier; each must stay
   bit-for-bit equivalent — including the RNG draw sequence. *)
let test_differential_per_branch_configs () =
  let pt = Registry.print_tokens in
  let cfg = Workload.pe_config pt in
  ignore
    (check_differential "random spawning"
       ~config:
         { cfg with Pe_config.random_spawn_chance = 0.25; random_seed = 7 }
       pt);
  ignore
    (check_differential "spawn everywhere"
       ~config:{ cfg with Pe_config.spawn_everywhere = true }
       pt);
  ignore
    (check_differential "profiled fixing"
       ~config:{ cfg with Pe_config.profiled_fixing = true }
       pt);
  ignore
    (check_differential "follow-nontaken ablation"
       ~config:{ cfg with Pe_config.follow_nontaken_in_nt = true }
       pt)

(* --- random-program differential --------------------------------------------- *)

(* Random programs (see Programs) under the standard configuration, CMP,
   and the [follow_nontaken_in_nt] ablation, whose NT-Path fast tier stops
   before every inner branch. *)
let prop_random_program_differential =
  QCheck.Test.make ~name:"random programs: selective = instrumented" ~count:25
    Programs.random_arbitrary (fun params ->
      let compiled = Compile.compile (Programs.random_src params) in
      let run config selective =
        let machine = Machine.create compiled.Compile.program in
        let result =
          Engine.run ~config:{ config with Pe_config.selective } machine
        in
        observables machine result
      in
      List.for_all
        (fun config -> run config false = run config true)
        [
          Pe_config.default;
          { Pe_config.default with Pe_config.mode = Pe_config.Cmp };
          { Pe_config.default with Pe_config.follow_nontaken_in_nt = true };
        ])

(* --- cache-overflow differential --------------------------------------------- *)

(* No workload in the sweep overflows an NT-Path's L1 buffering, so the
   fast tier's [Overflow] stop — the one case it commits by doing the
   store — is pinned here: the overflowing program must produce identical
   observables, NT-Path records included, on both tiers. *)
let test_overflow_differential () =
  let config =
    { Pe_config.default with Pe_config.max_nt_path_length = 1_000_000 }
  in
  let _, r_on =
    check_compiled "cache overflow" ~config ~input:""
      (Compile.compile Programs.cache_overflow)
  in
  Alcotest.(check bool) "some path overflowed L1 buffering" true
    (List.exists
       (fun (r : Nt_path.record) ->
         r.Nt_path.termination = Nt_path.T_cache_overflow)
       r_on.Engine.nt_records)

let tests =
  [
    Alcotest.test_case "shift amounts are masked to 63, not 62" `Quick
      test_shift_mask;
    Alcotest.test_case "shl doubles end-to-end on both tiers" `Quick
      test_shift_end_to_end;
    Alcotest.test_case "div-by-zero faults identically on both tiers" `Quick
      test_div_by_zero_parity;
    Alcotest.test_case "sandboxed syscall is reported, not executed" `Quick
      test_sandboxed_syscall_reported_not_executed;
    Alcotest.test_case "only overlay sandbox writes can overflow" `Quick
      test_sandbox_overflow_arms;
    QCheck_alcotest.to_alcotest prop_lookup_exercise_equiv;
    QCheck_alcotest.to_alcotest prop_probe_exercise_equiv;
    Alcotest.test_case "workload differential: all observables identical"
      `Quick test_differential_workloads;
    Alcotest.test_case "per-branch-action configs stay equivalent" `Quick
      test_differential_per_branch_configs;
    QCheck_alcotest.to_alcotest prop_random_program_differential;
    Alcotest.test_case "cache-overflow program: selective = instrumented"
      `Quick test_overflow_differential;
  ]
