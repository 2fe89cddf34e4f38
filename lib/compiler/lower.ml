(* Final lowering: resolve the symbolic label references of an [Asmprog.t]
   to absolute pcs and package the executable [Program.t] with the
   program-level metadata carried by the typed program. The result is
   validated before being returned. *)

let run (ap : Asmprog.t) (tp : Tast.tprogram) : Program.t =
  let resolve_target t =
    if t >= 0 then t
    else
      match Hashtbl.find_opt ap.Asmprog.labels (-t - 1) with
      | Some target_pc -> target_pc
      | None -> invalid_arg "Lower: unplaced label"
  in
  let code =
    Array.map
      (fun insn ->
        match insn with
        | Insn.Br (c, rs, rt, t) -> Insn.Br (c, rs, rt, resolve_target t)
        | Insn.Jmp t -> Insn.Jmp (resolve_target t)
        | Insn.Call t -> Insn.Call (resolve_target t)
        | _ -> insn)
      ap.Asmprog.code
  in
  let program =
    Program.make ~code ~entry:0 ~globals_words:tp.Tast.tp_globals_words
      ~init_data:tp.Tast.tp_init_data ~sites:ap.Asmprog.sites
      ~user_branches:ap.Asmprog.user_branches ~functions:ap.Asmprog.functions
      ~user_code_ranges:ap.Asmprog.user_ranges ~fix_atoms:ap.Asmprog.fix_atoms
      ~global_vars:tp.Tast.tp_global_vars ~blank_addrs:tp.Tast.tp_blank_addrs
      ~source_lines:(Array.of_list ap.Asmprog.source_lines)
  in
  Program.validate program;
  program
