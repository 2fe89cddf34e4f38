type t = int

let count = 32

let zero = 0

let rv = 2

let arg i =
  if i < 0 || i > 7 then invalid_arg "Reg.arg: argument registers are a0..a7";
  3 + i

let max_args = 8

let tmp i =
  if i < 0 || i > 17 then invalid_arg "Reg.tmp: temporaries are t0..t17";
  11 + i

let max_tmps = 18

let sp = 29

let fp = 30

let ra = 31

let is_valid r = r >= 0 && r < count

let name r =
  if r = zero then "zero"
  else if r = rv then "rv"
  else if r >= 3 && r <= 10 then Printf.sprintf "a%d" (r - 3)
  else if r >= 11 && r <= 28 then Printf.sprintf "t%d" (r - 11)
  else if r = sp then "sp"
  else if r = fp then "fp"
  else if r = ra then "ra"
  else Printf.sprintf "r%d" r
