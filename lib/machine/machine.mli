(** The assembled simulated machine: program image, data memory, shared L2,
    BTB with exercise counters, watchpoint unit, report log (monitor memory
    area) and program I/O. Execution contexts (one per core / path) are
    created separately and share this state. *)

type t = {
  config : Machine_config.t;
  program : Program.t;
  mem : Memory.t;
  l2 : Cache.t;
  btb : Btb.t;
  watch : Watchpoints.t;
  reports : Report.t;
  io : Io.t;
  mutable insn_index : int;  (** global retired-instruction counter *)
  mutable store_hook : (Context.t -> int -> int -> unit) option;
      (** observation hook called as [hook ctx addr value] on every data
          store (including sandboxed ones) — the attachment point for
          detectors built outside the compiler, such as the DIDUCE-style
          invariant monitor *)
  telemetry : Telemetry.t;
      (** per-run observability sink; the engine fills it with spawn,
          termination, cache, BTB and timer data and submits it to
          {!Telemetry.capture} at the end of the run *)
  recorder : Recorder.t;
      (** per-run flight recorder of NT-Path lifecycle events in sim time;
          the {!Recorder.disabled} singleton unless tracing is armed (or an
          explicit recorder was passed to {!create}), making every emit site
          a single branch *)
  mutable l1s : Cache.t list;
      (** the L1s {!new_l1} handed out, parked again by {!release} *)
}

(** Validates the program, lays out memory, installs initial data and points
    the runtime allocator's break word (global address 1) at the heap base.
    [recorder] overrides the process-global tracing default
    ({!Recorder.obtain}); it is attached to the L2 and every L1 this machine
    creates. The address space, L2 and BTB come from the machine-part pool
    when it holds parts that fit, reset to exactly the fresh state; the
    decoded image is the program's own ([Program.dcode]). *)
val create :
  ?config:Machine_config.t -> ?input:string -> ?recorder:Recorder.t ->
  Program.t -> t

(** An L1 cache with this machine's geometry (one per core), taken from
    the machine-part pool or newly built; either way it is in exactly the
    state [Cache.create] returns. {!release} parks it again. *)
val new_l1 : t -> Cache.t

(** Context positioned at the program entry with a full stack and its own
    L1. *)
val main_context : t -> Context.t

(** Extra stall cycles for a data access at [addr] through [l1] (0 on L1
    hit); [owner] version-tags the line on fills and — when [write] — on
    hits (read hits leave committed lines committed); [speculative]
    accesses probe the shared L2 without installing lines. *)
val access_latency :
  t -> Cache.t -> owner:int -> write:bool -> speculative:bool -> int -> int

(** Park this machine's address space, L2, BTB and every L1 {!new_l1}
    handed out in the machine-part pool ({!Parts}), where later machines
    take them. Call once the run is finished: none of those parts, nor any
    context holding one of the L1s, may be read afterwards. The reports,
    program I/O, telemetry and recorder are not pooled and stay readable.
    A second release is a no-op. *)
val release : t -> unit

(** Program output so far. *)
val output : t -> string
