(** The experiment registry: every table and figure of the paper's
    evaluation, plus the future-work extensions, addressable by id. This is
    the single entry point behind both `bin/experiments.exe` and the bench
    harness. *)

type experiment = {
  id : string;  (** e.g. ["tab4"], ["fig3"], ["ext1"] *)
  title : string;
  run : unit -> unit;  (** prints the table(s)/series to stdout *)
}

val all : experiment list
val find : string -> experiment option

(** Run one experiment with its output captured instead of printed; returns
    exactly the bytes it would have written to stdout. *)
val capture : experiment -> string

(** Run a selection of experiments. [jobs] defaults to
    {!Exp_common.jobs}[ ()]; with [jobs > 1] the experiments are fanned
    across a domain pool and their captured outputs printed in list order,
    byte-identical to a serial run. *)
val run_list : ?jobs:int -> experiment list -> unit

(** Run everything, in presentation order. *)
val run_all : ?jobs:int -> unit -> unit

val ids : unit -> string list
