(** The Coverage Observatory (DESIGN.md §15).

    Turns one finished engine run into an explanation of its coverage:
    frontier attribution (why each uncovered user branch edge stayed
    uncovered), prime-path coverage over the compiler's CFG, and
    execution-tier / cache fast-path occupancy. Snapshots render to
    schema-versioned single-line JSON from deterministic inputs only, so a
    parallel sweep's export is byte-identical to a serial one. A sweep
    collects snapshots through {!capture}, the channel's {!Capture} slot,
    which also arms the engine's bookkeeping for the duration. *)

(** Version stamped into every snapshot's ["schema"] member. *)
val schema_version : int

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

(** The Observatory channel. Collecting it arms the engine-side
    bookkeeping ({!Pe_config.set_obs_enabled}), and the experiment funnel
    snapshots each run while a collector is installed. Snapshots are keyed
    by label and their JSON. *)
val capture : t Capture.t

(** Write one [obs-%04d-<label>.json] file per snapshot into [dir]
    (created if missing), in list order (a collected sweep is already in
    canonical order). Returns the file paths in order. *)
val save_dir : dir:string -> t list -> string list
