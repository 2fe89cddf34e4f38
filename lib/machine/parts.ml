(* One mutex for every shelf: takes and parks happen once per part per run,
   so there is nothing to gain from finer locking. *)
type 'a shelf = { mutable parked : 'a list }

let mutex = Mutex.create ()

let shelf () = { parked = [] }

let take shelf ~fits ~reset ~fresh =
  let rec pick skipped = function
    | [] -> None
    | part :: rest when fits part ->
      shelf.parked <- List.rev_append skipped rest;
      Some part
    | part :: rest -> pick (part :: skipped) rest
  in
  match Mutex.protect mutex (fun () -> pick [] shelf.parked) with
  | Some part ->
    reset part;
    part
  | None -> fresh ()

let park shelf part =
  Mutex.protect mutex (fun () -> shelf.parked <- part :: shelf.parked)
