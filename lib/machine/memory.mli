(** Flat word-addressed data memory.

    Layout: the first [Program.null_guard_words] addresses form an unmapped
    null page (accessing any of them is a null-access fault), then globals,
    heap, and the downward-growing stack whose initial [sp] is [stack_base].
    Every other address inside the space is accessible — the machine faults
    on null-page, negative or beyond-address-space accesses, the
    access-violation crash model the paper's NT-Path crash-latency study
    relies on. *)

type t = {
  words : int array;
  globals_end : int;  (** first address past the globals segment *)
  heap_base : int;
  heap_end : int;
  stack_limit : int;  (** lowest legal stack address *)
  stack_base : int;  (** initial stack pointer *)
  mutable heap_hi : int;
      (** highest address written below [stack_limit], or -1 — bounds the
          re-zero on {!release} *)
  mutable stack_lo : int;
      (** lowest address written at or above [stack_limit], or [stack_base] *)
  mutable released : bool;
}

type fault = Null_access | Out_of_range of int

exception Fault of fault

(** First mapped address (size of the null page). *)
val null_guard : int

(** Lay out the segments over an all-zero array of at least [stack_base]
    words: a parked one from the pool when one is long enough, else a new
    one. The array may be longer than the layout; every bound is
    [stack_base]. *)
val create : globals_words:int -> heap_words:int -> stack_words:int -> t

(** Return this memory's backing array to the machine-part pool ({!Parts})
    for reuse by a later {!create} that needs at most its length. Only the
    written watermark ranges are re-zeroed, so releasing is O(words actually
    touched), not O(address space). The memory must not be read or written
    afterwards — its words now belong to whichever machine takes them next.
    Double release is a no-op. Pooled arrays are always all-zero, so
    simulation results are identical with or without pooling. *)
val release : t -> unit

(** Total address-space size in words ([stack_base]; the backing array may
    be longer). *)
val size : t -> int

(** Raises {!Fault} if [addr] is not accessible; no other effect. *)
val check : t -> int -> unit

(** Raises {!Fault} if [addr] is not accessible. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** [write] minus the access check, for callers that have just established
    [is_valid] (the selective fast tier validates operands *before*
    committing an instruction). Same watermark maintenance. *)
val write_valid : t -> int -> int -> unit

(** Exactly the complement of {!check}'s raise condition. *)
val is_valid : t -> int -> bool

val fault_to_string : fault -> string

(** Install the program's initialised globals. *)
val load_init : t -> (int * int) list -> unit
