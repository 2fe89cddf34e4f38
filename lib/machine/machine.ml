type t = {
  config : Machine_config.t;
  program : Program.t;
  mem : Memory.t;
  l2 : Cache.t;
  btb : Btb.t;
  watch : Watchpoints.t;
  reports : Report.t;
  io : Io.t;
  mutable insn_index : int;
  mutable store_hook : (Context.t -> int -> int -> unit) option;
  telemetry : Telemetry.t;
  recorder : Recorder.t;
  mutable l1s : Cache.t list;
}

(* Caches and BTBs recycle through the machine-part pool ({!Parts}), as
   address spaces do through [Memory]. A part fits a request when its
   geometry matches; [clear] makes a taken part exactly a fresh one. *)
let caches : Cache.t Parts.shelf = Parts.shelf ()
let btbs : Btb.t Parts.shelf = Parts.shelf ()

let take_cache ~size_kb ~assoc ~line_bytes recorder =
  let cache =
    Parts.take caches ~reset:Cache.clear
      ~fits:(Cache.has_geometry ~size_kb ~assoc ~line_bytes)
      ~fresh:(fun () -> Cache.create ~size_kb ~assoc ~line_bytes)
  in
  Cache.set_recorder cache recorder;
  cache

let create ?(config = Machine_config.default) ?(input = "") ?recorder program =
  Program.validate program;
  let mem =
    Memory.create ~globals_words:program.Program.globals_words
      ~heap_words:config.Machine_config.heap_words
      ~stack_words:config.Machine_config.stack_words
  in
  Memory.load_init mem program.Program.init_data;
  (* The MiniC runtime's bump allocator keeps its break pointer in the first
     global word (right after the null page); initialise it to the heap
     base, which is only known once memory is laid out. *)
  if program.Program.globals_words > 0 then
    Memory.write mem Memory.null_guard mem.Memory.heap_base;
  (* The flight recorder defaults through the process-global tracing switch:
     the disabled singleton (one branch per emit site, no storage) unless a
     sweep capture is armed. *)
  let recorder =
    match recorder with Some r -> r | None -> Recorder.obtain ()
  in
  {
    config;
    program;
    mem;
    l2 =
      take_cache ~size_kb:config.Machine_config.l2_size_kb
        ~assoc:config.Machine_config.l2_assoc
        ~line_bytes:config.Machine_config.line_bytes recorder;
    btb =
      (let entries = config.Machine_config.btb_entries
       and assoc = config.Machine_config.btb_assoc in
       Parts.take btbs ~reset:Btb.clear ~fits:(Btb.has_geometry ~entries ~assoc)
         ~fresh:(fun () -> Btb.create ~entries ~assoc));
    watch = Watchpoints.create ~words:(Memory.size mem);
    reports = Report.create ();
    io = Io.create ~input ();
    insn_index = 0;
    store_hook = None;
    telemetry = Telemetry.create ();
    recorder;
    l1s = [];
  }

let new_l1 machine =
  let l1 =
    take_cache ~size_kb:machine.config.Machine_config.l1_size_kb
      ~assoc:machine.config.Machine_config.l1_assoc
      ~line_bytes:machine.config.Machine_config.line_bytes machine.recorder
  in
  machine.l1s <- l1 :: machine.l1s;
  l1

let main_context machine =
  Context.create ~l1:(new_l1 machine) ~pc:machine.program.Program.entry
    ~sp:machine.mem.Memory.stack_base

(* Extra cycles for a data access: L1 hits are pipelined (no stall), an L1
   miss pays the latency of the level that services it. Speculative paths
   (non-zero owner) fill their own L1 — fills and writes take the path's
   version tag, read hits leave committed lines committed — but only probe
   the shared L2. *)
let access_latency machine l1 ~owner ~write ~speculative addr =
  match Cache.access_line l1 addr ~owner ~write ~allocate:true with
  | Cache.Hit -> 0
  | Cache.Miss ->
    (match
       Cache.access_line machine.l2 addr ~owner:Cache.committed_owner
         ~write:false ~allocate:(not speculative)
     with
     | Cache.Hit -> machine.config.Machine_config.l2_latency
     | Cache.Miss -> machine.config.Machine_config.mem_latency)

(* Park the address space, the L2, the BTB and every L1 handed out. The
   address space's [released] flag makes a second release a no-op, so no
   part is ever parked twice (two later machines would share it). *)
let release machine =
  if not machine.mem.Memory.released then begin
    Memory.release machine.mem;
    Parts.park caches machine.l2;
    Parts.park btbs machine.btb;
    List.iter (Parts.park caches) machine.l1s;
    machine.l1s <- []
  end

let output machine = Io.output machine.io
