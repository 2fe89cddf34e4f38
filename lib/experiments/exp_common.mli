(** Shared plumbing for the experiment modules. *)

type run = {
  compiled : Compile.compiled;
  machine : Machine.t;
  result : Engine.result;
}

(** Set the sweep-wide worker budget (the CLI's --jobs), clamped to >= 1.
    Call once before running experiments. *)
val set_jobs : int -> unit

(** Current worker budget (1 unless [set_jobs] raised it). *)
val jobs : unit -> int

(** Deterministic fan-out for workload×config sweeps: [par_map f xs] maps
    [f] over [xs] on up to [jobs ()] domains, returning results in input
    order — parallel sweeps print byte-identically to serial ones. Runs
    serially when the budget is 1 or when already inside a pool worker. *)
val par_map : ('a -> 'b) -> 'a list -> 'b list

(** Compile and execute one workload configuration. [config] overrides the
    workload's default PathExpander configuration ([mode] is ignored when
    [config] is given); [fixing] gates both the compiled stubs and the
    engine behaviour. *)
val run_app :
  ?detector:Codegen.detector ->
  ?fixing:bool ->
  ?bug:int ->
  ?mode:Pe_config.mode ->
  ?config:Pe_config.t ->
  ?input:string ->
  Workload.t ->
  run


(** Table 4/5 row labels, e.g. ["Software Tool (CCured)"]. *)
val detector_label : Codegen.detector -> string

(** Bugs of the workload that the detector can detect. *)
val bugs_for : Workload.t -> Codegen.detector -> Bug.t list

val overhead_pct : baseline:int -> with_pe:int -> float
val heading : string -> unit
