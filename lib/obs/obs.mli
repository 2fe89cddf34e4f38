(** The Coverage Observatory (DESIGN.md §15).

    Turns one finished engine run into an explanation of its coverage:
    frontier attribution (why each uncovered user branch edge stayed
    uncovered), prime-path coverage over the compiler's CFG, and
    execution-tier / cache fast-path occupancy. Snapshots render to
    schema-versioned single-line JSON from deterministic inputs only, so a
    parallel sweep's export is byte-identical to a serial one. *)

(** Version stamped into every snapshot's ["schema"] member. *)
val schema_version : int

type frontier_entry = {
  fr_pc : int;
  fr_dir : bool;
  fr_line : int;  (** source line of the branch (0 when unknown) *)
  fr_func : string;  (** enclosing function ("" when unknown) *)
  fr_cause : string;
      (** one of: [site-unreached], [spawn-budget], [no-spawning],
          [spawn-threshold], [nt-terminated:<termination>],
          [nt-unattributed] *)
  fr_btb : (int * int) option;
      (** final (taken, nontaken) BTB exercise counters, [None] on miss *)
}

(** Every uncovered user branch edge of the run with exactly one cause
    each, ordered by (pc, direction). *)
val attribute :
  program:Program.t ->
  machine:Machine.t ->
  result:Engine.result ->
  config:Pe_config.t ->
  frontier_entry list

(** CFG and prime paths of a compiled program, memoized on the program
    instance ({!Workload.compile} memoizes compilations, so this is a
    once-per-program cost across a sweep). *)
val primes_for : Program.t -> Cfg.t * Cfg.paths

type t

val label : t -> string

(** The snapshot's single-line JSON (no trailing newline). *)
val to_json : t -> string

(** Render one finished run. Reads the run's coverage, BTB state and
    telemetry counters; never the wall clock. *)
val snapshot :
  label:string ->
  program:Program.t ->
  machine:Machine.t ->
  result:Engine.result ->
  config:Pe_config.t ->
  t

(** Is a capture in progress (collector installed)? The experiment funnel
    snapshots each run iff armed. *)
val armed : unit -> bool

(** Hand a snapshot to the installed collector; no-op when unarmed. Safe
    from any domain. *)
val submit : t -> unit

(** Arm the observatory around [f]: sets {!Pe_config.set_obs_enabled} (the
    engine-side bookkeeping switch) and installs a snapshot-accumulating
    collector; both are cleared afterwards (also on raise). Returns
    [f ()]'s value and the snapshots in submission order. *)
val capture_runs : (unit -> 'a) -> 'a * t list

(** Write one [obs-%04d-<label>.json] file per snapshot into [dir]
    (created if missing), ordered by (label, content) — canonical across
    serial and parallel sweeps. Returns the file paths in order. *)
val save_dir : dir:string -> t list -> string list
