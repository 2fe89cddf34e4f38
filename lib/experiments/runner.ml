(* Experiment registry: every table and figure of the evaluation, by id. *)

type experiment = {
  id : string;
  title : string;
  run : unit -> unit;
}

let all =
  [
    { id = "fig1"; title = "Figure 1 motivating bug"; run = Exp_fig1.run };
    { id = "fig3"; title = "Crash/Unsafe-latency CDFs"; run = Exp_fig3.run };
    { id = "tab2"; title = "Simulated architecture parameters"; run = Exp_tab2.run };
    { id = "tab3"; title = "Applications and bugs"; run = Exp_tab3.run };
    { id = "tab4"; title = "Bug detection results"; run = Exp_tab4.run };
    { id = "tab5"; title = "Consistency-fixing effects"; run = Exp_tab5.run };
    { id = "cov1"; title = "Single-input branch coverage"; run = Exp_coverage.run };
    {
      id = "cov2";
      title = "Cumulative coverage over 50 inputs";
      run = (fun () -> Exp_cumulative.run ());
    };
    { id = "ovh1"; title = "Standard vs CMP overhead"; run = Exp_overhead.run };
    { id = "ovh2"; title = "Hardware vs software overhead"; run = Exp_sw_hw.run };
    { id = "par1"; title = "Parameter sensitivity"; run = Exp_params.run };
    { id = "abl1"; title = "NT-Path edge-following ablation"; run = Exp_ablation.run };
    {
      id = "ext1";
      title = "Future-work extensions (OS syscall sandboxing, random selection)";
      run = Exp_extensions.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let capture e =
  let (), out = Sink.with_capture e.run in
  out

(* With [jobs <= 1] experiments stream to stdout as they run; with more, each
   experiment executes under a domain-local capture buffer and the outputs are
   printed in registry (presentation) order, so the bytes on stdout are the
   same either way. Nested fan-out inside an experiment degrades to serial in
   worker domains (see Pool), so the domain count stays bounded by [jobs]. *)
let run_list ?jobs experiments =
  let jobs = match jobs with Some j -> j | None -> Exp_common.jobs () in
  if jobs <= 1 then List.iter (fun e -> e.run ()) experiments
  else List.iter Sink.print_string (Pool.map ~jobs capture experiments)

let run_all ?jobs () = run_list ?jobs all

let ids () = List.map (fun e -> e.id) all
