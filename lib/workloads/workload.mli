(** Benchmark application descriptors.

    A workload bundles the MiniC source generator (parameterised by which
    single bug version to plant, Siemens-style), the bug metadata, a default
    non-bug-triggering input, a random input generator for the cumulative
    coverage study, and the NT-Path budget the paper's methodology assigns
    to programs of its size. *)

type app_class = Siemens | Spec | Open_source

type t = {
  name : string;
  descr : string;
  app_class : app_class;
  source : bug:int option -> string;  (** MiniC source with one planted bug *)
  bugs : Bug.t list;
  default_input : string;  (** general input that triggers none of the bugs *)
  gen_input : Rng.t -> string;
  max_nt_path_length : int;
}

val app_class_name : app_class -> string
val bug_count : t -> int

(** Raises [Invalid_argument] on an unknown version. *)
val find_bug : t -> int -> Bug.t

(** Compile the workload, optionally with one planted bug version. [opt]
    selects the optimization level (default: the process-wide
    {!Opt.default_level}); results are memoised per
    workload×detector×fixing×bug×level in a bounded LRU (so repeated
    sweeps hit, while arbitrarily many distinct combinations cannot grow
    the table without eviction). *)
val compile :
  ?detector:Codegen.detector ->
  ?fixing:bool ->
  ?opt:Opt.level ->
  ?bug:int ->
  t ->
  Compile.compiled

(** Bound the compile memo (default 128 entries); shrinking below the
    current size evicts least-recently-used entries immediately. *)
val set_compile_cache_capacity : int -> unit

(** Entries currently memoised. *)
val compile_cache_length : unit -> int

(** Entries ever evicted by the LRU bound. *)
val compile_cache_evictions : unit -> int

(** PathExpander configuration with this workload's NT-Path budget. *)
val pe_config : ?mode:Pe_config.mode -> t -> Pe_config.t

(** Source line count of the bug-free source (Table 3's LOC column). *)
val loc : t -> int
