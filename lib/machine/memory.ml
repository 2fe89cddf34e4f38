type t = {
  words : int array;
  globals_end : int;
  heap_base : int;
  heap_end : int;
  stack_limit : int;
  stack_base : int;
  mutable heap_hi : int;
  mutable stack_lo : int;
  mutable released : bool;
}

type fault = Null_access | Out_of_range of int

exception Fault of fault

let null_guard = Program.null_guard_words

(* Address spaces recycle through the machine-part pool ({!Parts}). A
   default machine's memory is a ~1.3M-word array; allocating and zeroing
   one per simulated run dominates run setup for short programs. A release
   re-zeroes only the two write watermarks — [0, heap_hi] below
   [stack_limit] and [stack_lo, stack_base) above — so parked arrays are
   always all-zero. Every bound is checked against [stack_base], never the
   array's length, so any parked array at least that long serves: images
   with different globals segments share one array. *)
let shelf : int array Parts.shelf = Parts.shelf ()

let create ~globals_words ~heap_words ~stack_words =
  let globals_end = null_guard + globals_words in
  let heap_base = globals_end in
  let heap_end = heap_base + heap_words in
  let stack_limit = heap_end in
  let stack_base = stack_limit + stack_words in
  let words =
    Parts.take shelf ~reset:ignore
      ~fits:(fun arr -> Array.length arr >= stack_base)
      ~fresh:(fun () -> Array.make stack_base 0)
  in
  {
    words;
    globals_end;
    heap_base;
    heap_end;
    stack_limit;
    stack_base;
    heap_hi = -1;
    stack_lo = stack_base;
    released = false;
  }

let release mem =
  if not mem.released then begin
    mem.released <- true;
    if mem.heap_hi >= 0 then Array.fill mem.words 0 (mem.heap_hi + 1) 0;
    if mem.stack_lo < mem.stack_base then
      Array.fill mem.words mem.stack_lo (mem.stack_base - mem.stack_lo) 0;
    mem.heap_hi <- -1;
    mem.stack_lo <- mem.stack_base;
    Parts.park shelf mem.words
  end

let size mem = mem.stack_base

let check mem addr =
  if addr >= 0 && addr < null_guard then raise (Fault Null_access)
  else if addr < 0 || addr >= mem.stack_base then
    raise (Fault (Out_of_range addr))

let read mem addr =
  check mem addr;
  Array.unsafe_get mem.words addr

let[@inline always] write_valid mem addr value =
  Array.unsafe_set mem.words addr value;
  if addr < mem.stack_limit then begin
    if addr > mem.heap_hi then mem.heap_hi <- addr
  end
  else if addr < mem.stack_lo then mem.stack_lo <- addr

let write mem addr value =
  check mem addr;
  write_valid mem addr value

let is_valid mem addr = addr >= null_guard && addr < mem.stack_base

let fault_to_string = function
  | Null_access -> "null access"
  | Out_of_range addr -> Printf.sprintf "out-of-range access at %d" addr

let load_init mem init_data = List.iter (fun (a, v) -> write mem a v) init_data
