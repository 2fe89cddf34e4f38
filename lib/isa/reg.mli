(** Architectural registers of the PathExpander ISA.

    32 general-purpose registers with a MIPS-like software convention:
    [zero] reads as 0, [rv] holds return values, [a0]..[a7] carry arguments,
    [t0]..[t17] are caller-saved temporaries, [sp]/[fp]/[ra] are the stack
    pointer, frame pointer and return address. *)

type t = int

(** Number of architectural registers (32). *)
val count : int

(** Hard-wired zero register. *)
val zero : t

(** Return-value register. *)
val rv : t

(** [arg i] is argument register [a{i}], [0 <= i <= 7]. *)
val arg : t -> t

(** Maximum number of register-passed arguments (8). *)
val max_args : int

(** [tmp i] is temporary register [t{i}], [0 <= i <= 17]. *)
val tmp : t -> t

(** Number of temporaries available to the code generator (18). *)
val max_tmps : int

val sp : t
val fp : t
val ra : t

val is_valid : t -> bool

(** Conventional assembly name, e.g. ["a0"], ["sp"]. *)
val name : t -> string
