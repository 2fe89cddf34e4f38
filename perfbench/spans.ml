(* In-memory span log for the traced run.

   Every span records its name, start, end, parent and run id. Spans are
   recorded only by the benchmark's own code, around its calls into the
   simulator's public functions; nothing inside the simulator is
   instrumented. The log is kept in memory and written out once, at the end
   of the process. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  run : int;  (** run index within its pass, -1 when not run-scoped *)
}

let now = Unix.gettimeofday
let log : span array ref = ref [||]
let len = ref 0
let stack = ref []
let enabled = ref false

let push s =
  if !len = Array.length !log then begin
    let bigger = Array.make (max 1024 (2 * !len)) s in
    Array.blit !log 0 bigger 0 !len;
    log := bigger
  end;
  !log.(!len) <- s;
  incr len;
  !len - 1

let parent () = match !stack with i :: _ -> i | [] -> -1

(* [within name ~run f] runs [f], recording a span around it when tracing is
   on. Root spans ([parent = -1]) are opened the same way. *)
let within name ~run f =
  if not !enabled then f ()
  else begin
    let i = push { name; start = now (); stop = 0.0; parent = parent (); run } in
    stack := i :: !stack;
    let close () =
      !log.(i).stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* A child span whose duration the simulator measured itself (its
   telemetry timer), placed so that it ends now. *)
let closed name ~run ~dur =
  if !enabled then begin
    let stop = now () in
    ignore (push { name; start = stop -. dur; stop; parent = parent (); run })
  end

let mark () = !len

(* Self time of every span recorded since [from]: its duration minus the
   durations of its direct children. *)
let self_array ~from =
  let self =
    Array.init (!len - from) (fun k ->
        let s = !log.(from + k) in
        s.stop -. s.start)
  in
  for k = 0 to !len - from - 1 do
    let s = !log.(from + k) in
    if s.parent >= from then
      self.(s.parent - from) <- self.(s.parent - from) -. (s.stop -. s.start)
  done;
  self

let add table key v =
  Hashtbl.replace table key (v +. Option.value ~default:0.0 (Hashtbl.find_opt table key))

(* Self time per span name over the spans recorded since [from]. *)
let self_times ~from =
  let table = Hashtbl.create 32 in
  Array.iteri (fun k t -> add table !log.(from + k).name t) (self_array ~from);
  table

(* Self time of the spans named [name] since [from], summed per run id. *)
let run_self ~from name =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun k t ->
      let s = !log.(from + k) in
      if s.name = name then add table s.run t)
    (self_array ~from);
  table

(* One JSON object per span, oldest first; times in seconds from [t0]. *)
let write_jsonl ~t0 file =
  let oc = open_out file in
  for i = 0 to !len - 1 do
    let s = !log.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"run\":%d}\n"
      i (Jsonu.jstr s.name) (s.start -. t0) (s.stop -. t0) s.parent s.run
  done;
  close_out oc
