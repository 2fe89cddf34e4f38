(** The one pool for recycled machine parts: address-space arrays, caches
    and BTBs. Each kind of part sits on its own typed shelf, and every
    shelf shares one mutex, so parallel sweep domains can park and take
    parts safely.

    A shelf has no key: a take names what fits (a cache's geometry, an
    array's minimum length) and gets the most recently parked part that
    does. Parking never copies or clears; a take resets what it hands out. *)

type 'a shelf

val shelf : unit -> 'a shelf

(** [take shelf ~fits ~reset ~fresh] removes the most recently parked part
    for which [fits] holds and returns it after [reset] (outside the lock),
    or returns [fresh ()] when no parked part fits. *)
val take :
  'a shelf -> fits:('a -> bool) -> reset:('a -> unit) -> fresh:(unit -> 'a) -> 'a

(** Put a part on the shelf for a later {!take}. *)
val park : 'a shelf -> 'a -> unit
