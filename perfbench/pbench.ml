(* Layered benchmark of the PathExpander simulator.

   One process drives one workload serially (no extra domains):
   - sweep: the full -O0 reproduction ([Runner.all]), checked byte-for-byte
     against bench/SWEEP_O0.golden;
   - monitor: every registry app x {none, CCured, iWatcher} x generated
     inputs at -O2 in Baseline mode — long taken-path runs, no NT-Paths;
   - hunt: every planted bug of the six small buggy apps x each detector
     that can see it x generated inputs x {Standard, CMP} at -O0, with the
     flight recorder and the Observatory armed and artifacts written out —
     many short runs dominated by NT-Paths and per-run fixed costs.

   A run sets up several times (median reported), makes one checked warm-up
   pass, then repeats identical timed passes for the requested seconds. All
   output checks happen outside the timed passes. With [--trace 1] traced
   passes alternate with untraced ones, and spans taken around the calls
   into each layer give per-layer self times. The last line of stdout is
   one JSON object with the result. *)

type scale = Full | Small

let now = Unix.gettimeofday
let span = Spans.within

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* ---- Deterministic per-pass counts ------------------------------------- *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let bump key n = Hashtbl.replace counts key (n + Option.value ~default:0 (Hashtbl.find_opt counts key))
let count key = Option.value ~default:0 (Hashtbl.find_opt counts key)

let l1_prefixes =
  "l1.primary"
  :: List.init Machine_config.default.Machine_config.cores (fun i ->
         Printf.sprintf "l1.core%d" (i + 1))

(* Per-run host latencies of the current pass in ms, and the host time of
   each of its units (runs, or experiments on sweep) in s; newest first. *)
let latencies = ref []
let unit_times = ref []

(* Run id of the current run (the experiment index on sweep). *)
let current_run = ref (-1)

(* On sweep the benchmark does not call [Engine.run] itself, so run
   completions are stamped here and the engine's own [engine.run] timer
   becomes a child span of the running experiment. *)
let from_collector = ref false
let last_completion = ref 0.0

(* Every [Engine.run] submits its telemetry sink here. *)
let absorb tel =
  let c = Telemetry.counter tel in
  bump "sim.runs" 1;
  bump "sim.taken_insns" (c "taken.insns");
  bump "sim.taken_fast_insns" (c "selective.fast_insns");
  bump "sim.nt_insns" (c "nt.insns");
  bump "sim.nt_fast_insns" (c "nt.fast_insns");
  bump "sim.spawns" (c "engine.spawns");
  bump "sim.squashed_lines" (c "nt.squashed_lines");
  List.iter
    (fun p ->
      bump "l1.probes" (c (p ^ ".hits") + c (p ^ ".misses"));
      bump "l1.memo_hits" (c (p ^ ".memo_hits"));
      bump "l1.filter_hits" (c (p ^ ".filter_hits"));
      bump "l1.misses" (c (p ^ ".misses")))
    l1_prefixes;
  bump "l2.misses" (c "l2.misses");
  bump "btb.lookups" (c "btb.lookups");
  bump "btb.misses" (c "btb.misses");
  if !from_collector then begin
    Spans.closed "engine" ~run:!current_run ~dur:(Telemetry.timer_total tel "engine.run");
    let t = now () in
    latencies := ((t -. !last_completion) *. 1000.0) :: !latencies;
    last_completion := t
  end

(* ---- Workloads --------------------------------------------------------- *)

(* One prepared pass: [reset] runs untimed before it, [body] is the timed
   pass, [check] runs untimed after it and returns the failed units. *)
type prepared = {
  units : int;  (** checked units per pass: runs, or experiment legs *)
  reset : unit -> unit;
  body : unit -> unit;
  check : unit -> int;
  digest : unit -> string;  (** digest of the pass's outputs *)
  group_of_run : int -> string;  (** detector of a run, for host overhead *)
}

type job = {
  label : string;
  compiled : Compile.compiled;
  input : string;
  config : Pe_config.t;
  bug : Bug.t option;
  group : string;
  mutable expect : string * Engine.outcome;
}

(* Workload.compile, timed as the compiler layer. The memo is held at one
   entry during set-up, so every call compiles. *)
let compile ?detector ?bug ~opt w =
  bump "compile.calls" 1;
  span "compile" ~run:(-1) (fun () -> Workload.compile ?detector ?bug ~opt ~fixing:true w)

(* -O0 baseline run (no PathExpander) on the instrumented tier: the
   reference every checked run must reproduce. *)
let reference ?fuel (compiled : Compile.compiled) input =
  span "reference" ~run:(-1) (fun () ->
      let m = Machine.create ~input compiled.Compile.program in
      let r = Cpu.run_baseline ?fuel m in
      let out = Machine.output m in
      Machine.release m;
      ((out, (r.Cpu.outcome :> Engine.outcome)), r.Cpu.insns))

let app_rng ~seed (w : Workload.t) = Rng.create (Hashtbl.hash (seed, w.Workload.name))

(* The prefix of the app's seeded input stream whose reference runs retire
   closest to six default-input runs: every seed then gives a pass of about
   the same simulated work and run mix. *)
let budgeted_inputs ~seed ~scale (w : Workload.t) =
  let ref_image = compile ~opt:Opt.O0 w in
  let _, default_insns = reference ref_image w.Workload.default_input in
  let budget = 6 * default_insns in
  let rng = app_rng ~seed w in
  let rec draw acc total =
    let input = w.Workload.gen_input rng in
    let expect, insns = reference ref_image input in
    if acc <> [] && total + insns - budget > budget - total then List.rev acc
    else
      let acc = (input, expect) :: acc in
      if scale = Small || total + insns >= budget || List.length acc >= 64 then List.rev acc
      else draw acc (total + insns)
  in
  draw [] 0

let outcome_ok = function `Halted | `Exited _ -> true | `Faulted _ | `Fuel_exhausted -> false

(* Runs of monitor and hunt, each timed from machine load to export. With
   [artifacts], each run is also snapshotted by the Observatory, and its
   flight-recorder trace and snapshot are written into that directory. *)
let run_jobs ~artifacts jobs results =
  Array.iteri
    (fun i job ->
      current_run := i;
      let t0 = now () in
      results.(i) <-
        (match
           let m =
             span "load" ~run:i (fun () ->
                 Machine.create ~input:job.input job.compiled.Compile.program)
           in
           Telemetry.set_label m.Machine.telemetry job.label;
           let r = span "engine" ~run:i (fun () -> Engine.run ~config:job.config m) in
           Option.iter
             (fun bug ->
               ignore
                 (span "analysis" ~run:i (fun () ->
                      Analysis.analyze ~compiled:job.compiled ~machine:m ~bug)))
             job.bug;
           let snap =
             Option.map
               (fun _ ->
                 bump "obs.snapshots" 1;
                 span "obs" ~run:i (fun () ->
                     let s =
                       Obs.snapshot ~label:job.label ~program:job.compiled.Compile.program
                         ~machine:m ~result:r ~config:job.config
                     in
                     ignore (Obs.to_json s);
                     s))
               artifacts
           in
           let out = Machine.output m in
           span "load" ~run:i (fun () -> Machine.release m);
           bump "load.calls" 2;
           bump "recorder.events" (Recorder.total m.Machine.recorder);
           bump "recorder.dropped" (Recorder.dropped m.Machine.recorder);
           (match (artifacts, snap) with
            | Some dir, Some s ->
              span "export" ~run:i (fun () ->
                  ignore (Recorder.save_dir ~dir [ Recorder.dump ~label:job.label m.Machine.recorder ]);
                  ignore (Obs.save_dir ~dir [ s ]))
            | _ -> ());
           Ok (out, r.Engine.outcome)
         with
         | v -> v
         | exception e -> Error (Printexc.to_string e));
      let dt = now () -. t0 in
      latencies := (dt *. 1000.0) :: !latencies;
      unit_times := dt :: !unit_times)
    jobs

let check_jobs jobs results =
  let failed = ref 0 in
  Array.iteri
    (fun i job ->
      match results.(i) with
      | Ok ((_, outcome) as got) when got = job.expect && outcome_ok outcome -> ()
      | _ -> incr failed)
    jobs;
  !failed

let digest_results results =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (Array.to_list
             (Array.map
                (function
                  | Ok (out, outcome) -> Engine.outcome_name outcome ^ "\x01" ^ out
                  | Error e -> "error\x01" ^ e)
                results))))

let job_prepared ?artifacts ?(extra_check = fun () -> 0) jobs =
  let results = Array.make (Array.length jobs) (Error "not run") in
  {
    units = Array.length jobs;
    reset = (fun () -> Option.iter Files.clear_dir artifacts);
    body = (fun () -> run_jobs ~artifacts jobs results);
    check = (fun () -> check_jobs jobs results + extra_check ());
    digest = (fun () -> digest_results results);
    group_of_run = (fun i -> jobs.(i).group);
  }

let tamper jobs =
  if Array.length jobs > 0 then begin
    let out, outcome = jobs.(0).expect in
    jobs.(0).expect <- (out ^ "#", outcome)
  end

let monitor_setup ~seed ~scale ~tampered =
  let detectors = [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher ] in
  let jobs =
    List.concat_map
      (fun (w : Workload.t) ->
        let inputs = budgeted_inputs ~seed ~scale w in
        let config = Workload.pe_config ~mode:Pe_config.Baseline w in
        List.concat_map
          (fun detector ->
            let compiled = compile ~detector ~opt:Opt.O2 w in
            List.mapi
              (fun k (input, expect) ->
                let group = Codegen.detector_name detector in
                {
                  label = Printf.sprintf "%s/%s/i%d" w.Workload.name group k;
                  compiled;
                  input;
                  config;
                  bug = None;
                  group;
                  expect;
                })
              inputs)
          detectors)
      Registry.perf_apps
    |> Array.of_list
  in
  if tampered then tamper jobs;
  job_prepared jobs

let hunt_apps =
  Registry.[ bc; man; print_tokens; print_tokens2; schedule; schedule2 ]

(* The first four inputs of the app's seeded stream on which every buggy
   image's reference run ends normally within 1M instructions. An input whose
   taken path already trips a planted bug into a fault or an endless loop
   exposes the bug without NT-Paths, so the campaign skips it. *)
let hunt_inputs ~seed ~scale (w : Workload.t) images =
  let rng = app_rng ~seed w in
  let wanted = if scale = Small then 1 else 4 in
  let rec draw acc tries =
    if List.length acc = wanted || tries = 64 then List.rev acc
    else
      let input = w.Workload.gen_input rng in
      let expects = List.map (fun (_, _, c) -> fst (reference ~fuel:1_000_000 c input)) images in
      if List.for_all (fun (_, o) -> outcome_ok o) expects then draw ((input, expects) :: acc) (tries + 1)
      else draw acc (tries + 1)
  in
  draw [] 0

let hunt_setup ~seed ~scale ~tampered ~dir =
  let jobs =
    List.concat_map
      (fun (w : Workload.t) ->
        let images =
          List.concat_map
            (fun (bug : Bug.t) ->
              List.filter_map
                (fun detector ->
                  if Bug.detectable_by bug detector then
                    Some (bug, detector, compile ~detector ~bug:bug.Bug.version ~opt:Opt.O0 w)
                  else None)
                [ Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ])
            w.Workload.bugs
        in
        let inputs = hunt_inputs ~seed ~scale w images in
        List.concat
          (List.mapi
             (fun i (bug, detector, compiled) ->
               List.concat
                 (List.mapi
                    (fun k (input, expects) ->
                      List.map
                        (fun mode ->
                          {
                            label =
                              Printf.sprintf "%s/%s/v%d/%s/i%d" w.Workload.name
                                (Pe_config.mode_name mode) bug.Bug.version
                                (Codegen.detector_name detector) k;
                            compiled;
                            input;
                            config = Workload.pe_config ~mode w;
                            bug = Some bug;
                            group = Codegen.detector_name detector;
                            expect = List.nth expects i;
                          })
                        [ Pe_config.Standard; Pe_config.Cmp ])
                    inputs))
             images))
      hunt_apps
    |> Array.of_list
  in
  (* Labels name files, so they must be unique within a pass. *)
  Array.iteri (fun i j -> jobs.(i) <- { j with label = Printf.sprintf "r%04d/%s" i j.label }) jobs;
  if tampered then tamper jobs;
  let first_pass = ref true in
  (* One trace and one snapshot file per run; the first pass's files are
     all parsed, later passes must write the same bytes (ledger). *)
  let extra_check () =
    let n = Array.length jobs in
    let traces, snaps, unparsable = Files.check_artifacts ~dir ~parse:!first_pass in
    first_pass := false;
    bump "export.bytes" (Files.dir_bytes dir);
    abs (traces - n) + abs (snaps - n) + unparsable
  in
  job_prepared ~artifacts:dir ~extra_check jobs

(* Experiments of the small sweep: a prefix of the registry, so the golden's
   prefix is its expected output. *)
let sweep_experiments = function
  | Full -> Runner.all
  | Small -> List.filteri (fun i _ -> i < 3) Runner.all

let sweep_setup ~scale ~golden_file =
  let golden = In_channel.with_open_bin golden_file In_channel.input_all in
  List.iter (fun w -> ignore (compile ~opt:Opt.O0 w)) Registry.all;
  let experiments = Array.of_list (sweep_experiments scale) in
  let outputs = Array.make (Array.length experiments) "" in
  let body () =
    last_completion := now ();
    Array.iteri
      (fun k (e : Runner.experiment) ->
        current_run := k;
        let t0 = now () in
        outputs.(k) <-
          (match span ("exp." ^ e.Runner.id) ~run:k (fun () -> Runner.capture e) with
           | out -> out
           | exception ex -> "raised " ^ Printexc.to_string ex);
        unit_times := (now () -. t0) :: !unit_times)
      experiments
  in
  (* Leg k must reproduce the golden at the offset where leg k-1 ended; the
     full sweep must also end where the golden does. *)
  let check () =
    let failed = ref 0 and off = ref 0 in
    Array.iteri
      (fun k out ->
        let n = String.length out in
        let ok =
          !off + n <= String.length golden
          && String.sub golden !off n = out
          && (scale = Small || k < Array.length outputs - 1 || !off + n = String.length golden)
        in
        if not ok then incr failed;
        off := !off + n)
      outputs;
    !failed
  in
  {
    units = Array.length experiments;
    (* Each sweep starts as a fresh CLI sweep would: nothing compiled. The
       memo cannot go below one entry, so at most one image survives. *)
    reset =
      (fun () ->
        Workload.set_compile_cache_capacity 1;
        Workload.set_compile_cache_capacity 128);
    body;
    check;
    digest = (fun () -> Digest.to_hex (Digest.string (String.concat "\x00" (Array.to_list outputs))));
    group_of_run = (fun _ -> "");
  }

(* ---- Passes ------------------------------------------------------------- *)

type pass = {
  wall : float;
  lat_ms : float array;  (** per-run latencies, in run order *)
  unit_s : float array;  (** per-unit host times, in unit order *)
  failed : int;
  ledger : (string * string) list;
  sim_insns : int;
  minor_words : float;
  major_collections : int;
  layers : (string, float) Hashtbl.t option;  (** self time per span name *)
  engine_by_group : (string * float) list;
}

let run_pass (p : prepared) ~traced =
  Hashtbl.reset counts;
  latencies := [];
  unit_times := [];
  p.reset ();
  let from = Spans.mark () in
  Spans.enabled := traced;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  span "pass" ~run:(-1) p.body;
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  Spans.enabled := false;
  let failed = p.check () in
  Printf.eprintf "pass traced=%b wall_s=%.4f failed=%d\n%!" traced wall failed;
  let ledger =
    ("outputs", p.digest ())
    :: List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, string_of_int v) :: acc) counts [])
  in
  let engine_by_group =
    if not traced then []
    else
      Hashtbl.fold
        (fun run t acc ->
          let g = p.group_of_run run in
          (g, t +. Option.value ~default:0.0 (List.assoc_opt g acc)) :: List.remove_assoc g acc)
        (Spans.run_self ~from "engine") []
  in
  {
    wall;
    lat_ms = Array.of_list (List.rev !latencies);
    unit_s = Array.of_list (List.rev !unit_times);
    failed;
    ledger;
    sim_insns = count "sim.taken_insns" + count "sim.nt_insns";
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    layers = (if traced then Some (Spans.self_times ~from) else None);
    engine_by_group;
  }

(* A checked, untimed warm-up pass, then timed passes until [seconds] would
   be exceeded (at least one; with tracing, untraced and traced passes
   alternate and at least one of each runs). Returns the warm-up pass and
   the timed passes, oldest first. *)
let run_timed p ~seconds ~trace =
  let warm = run_pass p ~traced:false in
  let t_start = now () in
  let rec loop k acc =
    let min_passes = if trace then 2 else 1 in
    let last = match acc with q :: _ -> q.wall | [] -> warm.wall in
    if k >= min_passes && now () -. t_start +. last > seconds then List.rev acc
    else loop (k + 1) (run_pass p ~traced:(trace && k mod 2 = 1) :: acc)
  in
  (warm, loop 0 [])

(* ---- Host measurements -------------------------------------------------- *)

(* A fixed allocation-free integer loop: wall times divided by this compare
   across hosts. *)
let calibrate () =
  let kernel n =
    let acc = ref 1 in
    for i = 1 to n do
      acc := ((!acc * 25214903917) + i) land 0xFFFF_FFFF_FFFF
    done;
    Sys.opaque_identity !acc
  in
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (kernel 20_000_000);
         now () -. t0))

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ---- Main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref Full and golden = ref "bench/SWEEP_O0.golden" in
  let tampered = ref false and out_dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sweep|monitor|hunt");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--small", Arg.Unit (fun () -> scale := Small), " smallest size (self-test)");
      ("--golden", Arg.Set_string golden, "FILE expected sweep output");
      ("--tamper", Arg.Unit (fun () -> tampered := true), " alter one expected output (self-test)");
      ("--out", Arg.Set_string out_dir, "DIR ledgers, spans and artifacts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and scale = !scale in
  Exp_common.set_jobs 1;
  Files.mkdir_p !out_dir;
  let t_origin = now () in
  let calib_s = if trace then calibrate () else 0.0 in
  Telemetry.set_collector (Some absorb);
  let artifacts = Filename.concat !out_dir (!workload ^ "-artifacts") in
  let setup_round () =
    Hashtbl.reset counts;
    Workload.set_compile_cache_capacity 1;
    let from = Spans.mark () in
    Spans.enabled := true;
    let t0 = now () in
    let p =
      span "setup" ~run:(-1) (fun () ->
          match !workload with
          | "sweep" -> sweep_setup ~scale ~golden_file:!golden
          | "monitor" -> monitor_setup ~seed:!seed ~scale ~tampered:!tampered
          | "hunt" -> hunt_setup ~seed:!seed ~scale ~tampered:!tampered ~dir:artifacts
          | w -> failwith ("unknown workload " ^ w))
    in
    let dt = now () -. t0 in
    Spans.enabled := false;
    Workload.set_compile_cache_capacity 128;
    let compile_s = Option.value ~default:0.0 (Hashtbl.find_opt (Spans.self_times ~from) "compile") in
    (p, dt, compile_s, count "compile.calls")
  in
  (* Several set-ups: at least three, and up to 100 until a second's worth,
     so that a set-up of a few milliseconds still yields a steady median. *)
  let rec setups acc =
    let acc = setup_round () :: acc in
    let total = List.fold_left (fun s (_, d, _, _) -> s +. d) 0.0 acc in
    if List.length acc >= 100 || (List.length acc >= 3 && total >= 1.0) then acc
    else setups acc
  in
  let rounds = setups [] in
  let prepared, _, _, compile_calls = List.hd rounds in
  let setup_s = median (List.map (fun (_, d, _, _) -> d) rounds) in
  let compile_s = median (List.map (fun (_, _, c, _) -> c) rounds) in
  if !workload = "hunt" then Pe_config.set_obs_enabled true;
  if !workload = "hunt" then Recorder.set_tracing (Some Recorder.default_capacity);
  from_collector := !workload = "sweep";
  let warm, passes = run_timed prepared ~seconds:!seconds ~trace in
  Recorder.set_tracing None;
  Pe_config.set_obs_enabled false;
  Telemetry.set_collector None;
  (* Counts must repeat exactly: across passes here, and across processes
     running the same executable on the same workload, size and seed. *)
  let ledger_file =
    Filename.concat !out_dir
      (Printf.sprintf "ledger-%s-%s-seed%d.txt" !workload
         (match scale with Full -> "full" | Small -> "small") !seed)
  in
  let failed =
    List.fold_left
      (fun acc q -> acc + q.failed + if q.ledger <> warm.ledger then prepared.units else 0)
      warm.failed passes
    + if Files.ledger_agrees ledger_file warm.ledger then 0 else prepared.units
  in
  let attempted = prepared.units * (1 + List.length passes) in
  let untraced = List.filter (fun q -> q.layers = None) passes in
  let traced = List.filter (fun q -> q.layers <> None) passes in
  let med f qs = median (List.map f qs) in
  (* Host noise here comes in bursts, so a pass's time is taken as the sum
     over its units of each unit's median time across the timed passes, and
     latency percentiles over each run's median latency. *)
  let by_position f qs =
    match List.map f qs with
    | [] -> [||]
    | samples ->
      let n = List.fold_left (fun m a -> min m (Array.length a)) max_int samples in
      Array.init n (fun i -> median (List.map (fun a -> a.(i)) samples))
  in
  let wall_of qs = Array.fold_left ( +. ) 0.0 (by_position (fun q -> q.unit_s) qs) in
  let wall_s = wall_of untraced in
  let run_ms = Array.to_list (by_position (fun q -> q.lat_ms) untraced) in
  let ledger_int k = try int_of_string (List.assoc k warm.ledger) with Not_found -> 0 in
  let sim_insns = float_of_int warm.sim_insns in
  let metrics =
    if not trace then
      [
        ("wall_s", wall_s, "s");
        ("sim_minsts_per_s", float_of_int warm.sim_insns /. wall_s /. 1e6, "1/s");
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
    else begin
      let layer name =
        med (fun q -> Option.value ~default:0.0 (Hashtbl.find_opt (Option.get q.layers) name)) traced
      in
      let traced_wall = wall_of traced in
      let engine_s = layer "engine" in
      let host_overhead =
        med
          (fun q ->
            match List.assoc_opt "none" q.engine_by_group with
            | Some base when base > 0.0 ->
              let others = List.filter (fun (g, _) -> g <> "none") q.engine_by_group in
              let mean = List.fold_left (fun s (_, t) -> s +. t) 0.0 others /. float_of_int (List.length others) in
              100.0 *. (mean -. base) /. base
            | _ -> 0.0)
          traced
      in
      let c name = (name, float_of_int (ledger_int name), "count") in
      let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
      [
        ("run_ms_p50", median run_ms, "ms");
        ("run_ms_p95", percentile run_ms 95.0, "ms");
        ("compile.calls", float_of_int compile_calls, "count");
        ("compile.self_s", compile_s, "s");
        c "load.calls";
        ("load.self_s", layer "load", "s");
        ("engine.self_s", engine_s, "s");
        ("engine.ns_per_sim_insn", (if sim_insns > 0.0 then engine_s *. 1e9 /. sim_insns else 0.0), "ns");
        c "sim.runs";
        c "sim.taken_insns";
        c "sim.taken_fast_insns";
        c "sim.nt_insns";
        c "sim.nt_fast_insns";
        ( "sim.fast_fraction",
          ratio
            (ledger_int "sim.taken_fast_insns" + ledger_int "sim.nt_fast_insns")
            (ledger_int "sim.taken_insns" + ledger_int "sim.nt_insns"),
          "ratio" );
        c "sim.spawns";
        c "sim.squashed_lines";
        c "l1.probes";
        c "l1.memo_hits";
        c "l1.filter_hits";
        c "l1.misses";
        ("l1.memo_hit_rate", ratio (ledger_int "l1.memo_hits") (ledger_int "l1.probes"), "ratio");
        c "l2.misses";
        c "btb.lookups";
        c "btb.misses";
        ("analysis.self_s", layer "analysis", "s");
        ("detectors.host_overhead_pct", host_overhead, "%");
        c "obs.snapshots";
        ("obs.self_s", layer "obs", "s");
        c "recorder.events";
        c "recorder.dropped";
        ("export.self_s", layer "export", "s");
        ("export.bytes", float_of_int (ledger_int "export.bytes"), "B");
      ]
      @ List.map (fun (e : Runner.experiment) -> ("exp." ^ e.Runner.id ^ "_s", layer ("exp." ^ e.Runner.id), "s")) Runner.all
      @ [
          ("gc.minor_words", med (fun q -> q.minor_words) untraced, "words");
          ("gc.major_collections", med (fun q -> float_of_int q.major_collections) untraced, "count");
          ( "gc.minor_words_per_sim_insn",
            (if sim_insns > 0.0 then med (fun q -> q.minor_words) untraced /. sim_insns else 0.0),
            "words/insn" );
          ("trace.overhead_pct", 100.0 *. ((traced_wall /. wall_s) -. 1.0), "%");
          ("trace.unattributed_s", layer "pass", "s");
          ("trace.unattributed_pct", 100.0 *. layer "pass" /. traced_wall, "%");
          ("host.calib_s", calib_s, "s");
          ("failed_pct", 100.0 *. float_of_int failed /. float_of_int attempted, "%");
        ]
    end
  in
  if trace then
    Spans.write_jsonl ~t0:t_origin
      (Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed));
  Files.remove_dir artifacts;
  let field (name, v, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Jsonu.jstr name)
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
      (Jsonu.jstr unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))
