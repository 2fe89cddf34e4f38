(* The one collector protocol: a mutex-protected slot per channel, fed by
   finished runs from any domain and drained around a sweep in canonical
   (label, deterministic content) order. *)

type 'a t = {
  mutex : Mutex.t;
  mutable slot : ('a -> unit) option;
  key : 'a -> string * string;
  arm : bool -> unit;
}

let create ~arm ~key =
  { mutex = Mutex.create (); slot = None; key; arm }

let install t c =
  Mutex.protect t.mutex (fun () -> t.slot <- c);
  t.arm (Option.is_some c)

let active t = Mutex.protect t.mutex (fun () -> Option.is_some t.slot)

let submit t x =
  match Mutex.protect t.mutex (fun () -> t.slot) with
  | None -> ()
  | Some f -> f x

(* Keys are computed once per item, after the sweep: items are never
   mutated once submitted. *)
let canonical t items =
  List.map (fun x -> (t.key x, x)) items
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

type channel = Channel : 'a t * ('a list -> unit) -> channel

(* Install an accumulator on [t]; the returned [stop] clears it and yields
   the hand-off of the canonical items. *)
let start (Channel (t, write)) =
  let acc = ref [] in
  install t (Some (fun x -> Mutex.protect t.mutex (fun () -> acc := x :: !acc)));
  fun () ->
    install t None;
    let items = canonical t !acc in
    fun () -> write items

let collect_all channels f =
  let stops = List.map start channels in
  match f () with
  | v ->
    List.iter (fun write -> write ()) (List.map (fun stop -> stop ()) stops);
    v
  | exception e ->
    List.iter (fun (Channel (t, _)) -> install t None) channels;
    raise e

let collect t f =
  let items = ref [] in
  let v = collect_all [ Channel (t, fun xs -> items := xs) ] f in
  (v, !items)
