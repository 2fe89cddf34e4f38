(* Shared plumbing for the experiment harness. *)

type run = {
  compiled : Compile.compiled;
  machine : Machine.t;
  result : Engine.result;
}

(* The sweep-wide worker budget, set once from the CLI's --jobs before any
   experiment runs. *)
let jobs_setting = Atomic.make 1

let set_jobs n = Atomic.set jobs_setting (max 1 n)

let jobs () = Atomic.get jobs_setting

(* Deterministic fan-out for workload×config sweeps: each item runs on a
   pool worker (every run owns its own [Machine.t], so runs are trivially
   independent) and results come back in input order, making a parallel
   sweep byte-identical to a serial one. Degrades to [List.map] when --jobs
   is 1 or when already inside a pool worker. *)
let par_map f xs = Pool.map ~jobs:(jobs ()) f xs

(* Compile and execute one workload configuration. *)
let run_app ?(detector = Codegen.No_detector) ?(fixing = true) ?bug
    ?(mode = Pe_config.Standard) ?config ?input (workload : Workload.t) =
  let compiled = Workload.compile ~detector ~fixing ?bug workload in
  let input = Option.value ~default:workload.Workload.default_input input in
  let machine = Machine.create ~input compiled.Compile.program in
  let config =
    match config with
    | Some c -> { c with Pe_config.fixing = c.Pe_config.fixing && fixing }
    | None ->
      let c = Workload.pe_config ~mode workload in
      { c with Pe_config.fixing }
  in
  Telemetry.set_label machine.Machine.telemetry
    (Printf.sprintf "%s/%s%s" workload.Workload.name
       (Pe_config.mode_name config.Pe_config.mode)
       (match bug with Some b -> Printf.sprintf "/v%d" b | None -> ""));
  let result = Engine.run ~config machine in
  (* Observatory capture happens before release only by convention — release
     recycles the simulated address space, and the snapshot reads coverage,
     BTB and telemetry, all of which survive it. *)
  if Capture.active Obs.capture then
    Capture.submit Obs.capture
      (Obs.snapshot
         ~label:(Telemetry.label machine.Machine.telemetry)
         ~program:compiled.Compile.program ~machine ~result ~config);
  (* The run is over; callers only consult reports/output/telemetry, so the
     simulated address space can go back to the pool now. *)
  Machine.release machine;
  { compiled; machine; result }

let detector_label = function
  | Codegen.Ccured -> "Software Tool (CCured)"
  | Codegen.Iwatcher -> "Hardware Tool (iWatcher)"
  | Codegen.Assertions -> "Assertions"
  | Codegen.No_detector -> "None"

(* Bugs of [workload] that [detector] can detect. *)
let bugs_for workload detector =
  List.filter (fun b -> Bug.detectable_by b detector) workload.Workload.bugs

let overhead_pct ~baseline ~with_pe =
  if baseline = 0 then 0.0
  else 100.0 *. float_of_int (with_pe - baseline) /. float_of_int baseline

let heading title =
  Sink.printf "\n=== %s ===\n" title
