(** Control-flow graph and prime-path enumeration over compiled images.

    The static half of the Coverage Observatory (DESIGN.md §15): an
    intraprocedural basic-block CFG over the user code ranges of a
    {!Program.t} — the same universe branch coverage is recorded over — plus
    bounded Ammann–Offutt prime-path enumeration with an explicit truncation
    count, and an edge-approximated covered-path evaluator. *)

type edge_kind =
  | E_fall  (** fallthrough / unconditional jump *)
  | E_taken of int  (** taken edge of the user branch at this pc *)
  | E_nontaken of int  (** fallthrough edge of the user branch at this pc *)

type block = {
  b_first : int;  (** pc of the first instruction *)
  b_last : int;  (** pc of the last instruction (the terminator) *)
}

type t = {
  blocks : block array;
  succs : (int * edge_kind) list array;
      (** per block: successor block indices with the edge kind *)
  func_of_block : string array;  (** enclosing user function name *)
  decision_pcs : int list;
      (** user-branch pcs that terminate a block, in block order *)
}

(** Branch-coverage coordinates of an edge: [(branch pc, direction)] for
    decision edges, [None] for plain control flow. *)
val edge_decision : edge_kind -> (int * bool) option

(** CFG over the user code ranges of a program. [Call] is treated as
    straight-line and predicated instructions as NOPs, matching what the
    taken path of a monitored run retires. *)
val of_program : Program.t -> t

(** Test constructor: a bare graph from adjacency lists (all edges
    [E_fall], one dummy instruction per block), for hand-checked
    prime-path counts. *)
val of_succs : int list array -> t

type prime = {
  nodes : int array;  (** block indices, in path order *)
  decisions : (int * bool) list;
      (** branch-coverage coordinates of the path's decision edges *)
}

type paths = {
  all : prime array;  (** deterministic order: sorted by node sequence *)
  truncated : int;
      (** candidate simple paths abandoned because the work budget tripped;
          [0] means [all] is the complete prime-path universe *)
}

(** Prime-path node sequences with the truncation count — the shape-level
    half of {!enumerate}. Depends only on {!shape}, so callers may share
    one result across CFGs with equal shape. *)
type node_paths = {
  np_all : int array array;
  np_truncated : int;
}

val default_max_paths : int

(** Enumerate the prime-path node sequences (maximal simple paths and
    simple cycles, Ammann–Offutt). Deterministic; bounded by [max_paths]
    candidate paths with the overflow reported in [np_truncated]. *)
val enumerate_nodes : ?max_paths:int -> t -> node_paths

(** Attach each node sequence's decision edges for one concrete CFG. *)
val paths_of_nodes : t -> node_paths -> paths

(** [paths_of_nodes cfg (enumerate_nodes cfg)]. *)
val enumerate : ?max_paths:int -> t -> paths

(** The successor structure over block indices with edge kinds erased: the
    only input {!enumerate_nodes} reads, usable as a sharing key (compare
    structurally) for its result across CFGs of related programs. *)
val shape : t -> int list array

(** Number of prime paths covered under the edge approximation: every
    decision edge of the path satisfies [edge_covered pc direction] and
    every block's first pc satisfies [block_covered]. An over-approximation
    of true path coverage; see DESIGN.md §15. *)
val covered_count :
  edge_covered:(int -> bool -> bool) ->
  block_covered:(int -> bool) ->
  t ->
  paths ->
  int
