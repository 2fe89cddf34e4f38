(** PathExpander policy parameters. *)

type mode =
  | Baseline  (** plain monitored run, no NT-Paths *)
  | Standard  (** checkpoint-and-rollback on the single core (Fig. 4a) *)
  | Cmp  (** NT-Paths on idle cores of the CMP (Fig. 4b) *)

type t = {
  mode : mode;
  nt_counter_threshold : int;
      (** spawn on a non-taken edge whose BTB exercise counter is below this
          ([NTPathCounterThreshold], paper default 5) *)
  max_nt_path_length : int;
      (** terminate an NT-Path after this many instructions
          ([MaxNTPathLength], 1000; 100 for the small Siemens programs) *)
  max_num_nt_paths : int;
      (** CMP option: maximum outstanding NT-Paths ([MaxNumNTPaths], 32) *)
  counter_reset_interval : int;
      (** reset all exercise counters every this many retired instructions
          ([CounterResetInterval]) *)
  fixing : bool;
      (** execute the predicated consistency-fix blocks at NT-Path entry
          (requires a binary compiled with [Codegen.options.fixing]) *)
  follow_nontaken_in_nt : bool;
      (** Section 4.2 ablation: inside an NT-Path, keep forcing cold
          non-taken edges instead of following the actual condition *)
  spawn_everywhere : bool;
      (** ignore exercise counters and spawn on every non-taken edge *)
  sandbox_syscalls : bool;
      (** the paper's future-work OS support (Section 3.2): virtualise I/O
          syscalls inside NT-Paths — output is discarded, [getc] reads ahead
          on a path-local cursor — instead of terminating the path *)
  random_spawn_chance : float;
      (** the paper's Section 7.1 suggestion for the hot-entry-edge miss:
          with this probability, spawn a non-taken edge even when its
          exercise counter is already at the threshold *)
  random_seed : int;  (** seed for the (deterministic) random spawn factor *)
  profiled_fixing : bool;
      (** the paper's Section 4.4 future work: fix condition variables with
          values from their observed history (value-invariant inference)
          when one satisfies the forced edge, falling back to the boundary
          stubs otherwise *)
  selective : bool;
      (** coverage-preserving selective detection (HeXcite-style): run the
          taken path on the stripped fast interpreter tier, deoptimizing to
          the fully instrumented tier exactly at spawn-candidate branches,
          syscalls, detector checks, watch traffic and faults. Output is
          byte-identical to non-selective execution. Configurations with a
          per-branch action (random spawning, profiled fixing,
          spawn-everywhere, the [follow_nontaken_in_nt] ablation)
          deoptimize at every branch but keep straight-line code fast;
          active watchpoints and store hooks pin execution to the
          instrumented tier while they last. Default on. *)
}

(** Process-wide selective kill switch (CLI plumbing): when set to [false],
    every run behaves as if [selective = false] regardless of its config. *)
val set_selective_enabled : bool -> unit

(** Is selective execution effective for [config] — its own flag AND the
    process-wide switch. *)
val selective_on : t -> bool

(** Process-wide Coverage Observatory switch (DESIGN.md §15): when armed,
    runs collect frontier-attribution bookkeeping and deopt-cause counters.
    Off by default; arming must not change any observable run output. *)
val set_obs_enabled : bool -> unit

val obs_on : unit -> bool

val default : t
val baseline : t
val siemens : t

(** Spawn on every cold edge with no fixing — the Section 3.2 crash-latency
    study setup. *)
val latency_study : t

val mode_name : mode -> string
