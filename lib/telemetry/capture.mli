(** The one collector protocol behind every per-run channel: telemetry
    sinks, flight-recorder dumps and Coverage Observatory snapshots.

    A capture is a process-global, mutex-protected slot. Finished runs
    {!submit} their item from whichever domain ran them; a caller that
    wants the items {!collect}s them around a sweep. A parallel sweep
    submits in nondeterministic order, so {!collect} hands the items back
    in one canonical order, by (label, deterministic content): identical
    sweeps yield identical lists, serial or under [--jobs N]. Nothing
    downstream sorts again. *)

type 'a t

(** [create ~arm ~key] makes an empty slot. [key item] is the item's
    label and its deterministic content (never wall-clock data);
    {!collect} orders by it. [arm on] runs whenever a collector is
    installed ([true]) or cleared ([false]), so a channel can switch on
    the per-run bookkeeping that feeds it. *)
val create : arm:(bool -> unit) -> key:('a -> string * string) -> 'a t

(** Install ([Some f]) or clear ([None]) the collector {!submit} feeds. *)
val install : 'a t -> ('a -> unit) option -> unit

(** Whether a collector is installed. *)
val active : 'a t -> bool

(** Hand a finished run's item to the collector; no-op without one. Safe
    from any domain. *)
val submit : 'a t -> 'a -> unit

(** [collect t f] installs an accumulating collector around [f] and
    returns [f ()]'s value with the items submitted during it, in
    canonical order. The collector is cleared on return and on raise. *)
val collect : 'a t -> (unit -> 'b) -> 'b * 'a list

(** A capture and what to do with its items once collected. *)
type channel = Channel : 'a t * ('a list -> unit) -> channel

(** [collect_all channels f] collects every channel around one call of
    [f], clears them all, then hands each its items in canonical order,
    in list order. On raise every channel is cleared and nothing is
    handed on. *)
val collect_all : channel list -> (unit -> 'b) -> 'b
