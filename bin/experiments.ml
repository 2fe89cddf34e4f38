(* Regenerate the paper's tables and figures.

   Usage: experiments [IDS...]            (no arguments: run everything)
          experiments --list
          experiments --jobs 4            (fan runs across a domain pool)
          experiments --telemetry t.json  (write per-run telemetry JSON) *)

let list_ids () =
  List.iter
    (fun e ->
      Printf.printf "%-5s %s\n" e.Runner.id e.Runner.title)
    Runner.all

let experiments_for ids =
  List.map
    (fun id ->
      match Runner.find id with
      | Some e -> e
      | None ->
        Printf.eprintf "unknown experiment '%s' (try --list)\n" id;
        exit 1)
    ids

(* Per-run lines sorted by label (submission order is nondeterministic under
   --jobs > 1), then the cross-run aggregate as the final line. *)
let write_telemetry oc file runs =
  (* labels can collide (the same app/mode under different experiment
     configs), so tie-break on deterministic simulation counters to keep the
     file order independent of submission order *)
  let key t =
    ( Telemetry.label t,
      Telemetry.counter t "engine.total_cycles",
      Telemetry.counter t "taken.insns",
      Telemetry.counter t "engine.spawns" )
  in
  let runs = List.sort (fun a b -> compare (key a) (key b)) runs in
  List.iter (fun t -> output_string oc (Telemetry.to_json t ^ "\n")) runs;
  output_string oc (Telemetry.aggregate_json runs ^ "\n");
  close_out oc;
  Printf.eprintf "telemetry: %d runs -> %s\n%!" (List.length runs) file

open Cmdliner

let ids_arg =
  let doc = "Experiment ids to run (all when omitted)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let list_arg =
  let doc = "List the available experiments." in
  Arg.(value & flag & info [ "list" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains to fan experiments and sweep cells across. With 1 \
     (the default) everything runs serially in this domain; output is \
     byte-identical either way."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let telemetry_arg =
  let doc =
    "Write per-run telemetry to $(docv): one JSON object per run (sorted by \
     label) plus a final aggregate line."
  in
  Arg.(
    value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let selective_arg =
  let doc =
    "Run taken paths through the selective fast/slow interpreter split \
     (coverage-preserving selective detection). Output is byte-identical \
     either way; $(b,--selective=false) pins every run to the fully \
     instrumented interpreter, for equivalence checks and timing baselines."
  in
  Arg.(value & opt bool true & info [ "selective" ] ~docv:"BOOL" ~doc)

let opt_arg =
  let doc =
    "Optimization level every sweep compilation uses: O0 (default, the \
     reference emission), O1, or O2. Each level's full-sweep output is \
     itself deterministic (byte-identical serial or under $(b,--jobs)); \
     only O0 matches the committed reference output."
  in
  let parse s =
    match Opt.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown optimization level '%s'" s))
  in
  let lvl = Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<level>") in
  Arg.(value & opt lvl Opt.O0 & info [ "opt"; "O" ] ~docv:"LEVEL" ~doc)

let trace_dir_arg =
  let doc =
    "Capture every run's flight-recorder trace (NT-Path lifecycle events in \
     sim time) and write one JSONL file per run into $(docv). File names and \
     contents are deterministic: byte-identical serial or under $(b,--jobs)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let obs_dir_arg =
  let doc =
    "Capture every run's Coverage Observatory snapshot (frontier \
     attribution, prime-path coverage, tier occupancy) and write one JSON \
     file per run into $(docv). File names and contents are deterministic: \
     byte-identical serial or under $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR" ~doc)

(* Create (or check) an output directory before the (possibly
   minutes-long) sweep, so a bad path fails fast with one line on stderr
   instead of an exception that discards finished runs. *)
let prepare_dir what = function
  | None -> ()
  | Some dir ->
    (match Artifacts.prepare_dir dir with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "cannot create %s directory: %s\n" what msg;
       exit 1)

let main list jobs telemetry selective opt trace_dir obs_dir ids =
  if list then list_ids ()
  else begin
    Exp_common.set_jobs jobs;
    Pe_config.set_selective_enabled selective;
    Opt.set_default opt;
    let experiments =
      match ids with [] -> Runner.all | ids -> experiments_for ids
    in
    prepare_dir "trace" trace_dir;
    prepare_dir "obs" obs_dir;
    let run () = Runner.run_list experiments in
    (* Trace capture wraps the sweep (innermost) so it composes with
       --telemetry; each finished run submits an immutable event dump. *)
    let run () =
      match trace_dir with
      | None -> run ()
      | Some dir ->
        let v, dumps = Recorder.capture_runs run in
        let files = Recorder.save_dir ~dir dumps in
        Printf.eprintf "traces: %d runs -> %s\n%!" (List.length files) dir;
        v
    in
    (* Observatory capture composes the same way; it also arms the engine's
       per-run attribution bookkeeping for the duration of the sweep. *)
    let run () =
      match obs_dir with
      | None -> run ()
      | Some dir ->
        let v, snaps = Obs.capture_runs run in
        let files = Obs.save_dir ~dir snaps in
        Printf.eprintf "obs: %d runs -> %s\n%!" (List.length files) dir;
        v
    in
    match telemetry with
    | None -> run ()
    | Some file ->
      (* open before the (possibly minutes-long) sweep so a bad path fails
         fast instead of discarding finished runs *)
      let oc =
        try open_out file
        with Sys_error msg ->
          Printf.eprintf "cannot open telemetry file: %s\n" msg;
          exit 1
      in
      let (), runs = Telemetry.collect_runs run in
      write_telemetry oc file runs
  end

let cmd =
  let doc = "regenerate the PathExpander paper's tables and figures" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info
    Term.(
      const main $ list_arg $ jobs_arg $ telemetry_arg $ selective_arg
      $ opt_arg $ trace_dir_arg $ obs_dir_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
