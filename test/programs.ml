(* MiniC programs shared by the differential tests.

   [random_gen]/[random_src]: iterated clauses of data-dependent and cold
   branches, shifts and guarded divisions, with locals the register
   allocator will promote, a helper call, a global write and a non-zero
   exit code — enough structure to exercise spawns, deoptimizations, the
   ALU paths and the optimizer's passes.

   [cache_overflow]: a cold edge whose NT-Path dirties more distinct L1
   lines than the cache can buffer — the paper's capacity-driven squash.

   [red_zones]: compiled for iWatcher, a taken-path store into a global's
   red zone, and a cold edge whose NT-Path overflows a local array: the
   path arms the array's red zone (a journaled watch), stores into it and
   disarms it, and its squash undoes both. *)

type clause = { mul : int; modulus : int; bound : int; shift : int }

let clause_src i cl =
  Printf.sprintf
    "    if ((i * %d) %% %d < %d) { acc = acc + ((i << %d) - (acc >> 1)); }\n\
    \    else { acc = acc - (i %% %d) - %d; }\n\
    \    if (acc %% 97 == %d) { acc = acc + step(i); }\n"
    cl.mul cl.modulus cl.bound cl.shift cl.modulus (i + 1)
    ((cl.mul + cl.bound) mod 97)

let random_src (iters, clauses) =
  Printf.sprintf
    "int last = 0;\n\
     int step(int i) { return 1000 / (1 + (i %% 7)); }\n\
     int main() {\n\
    \  int i;\n\
    \  int acc;\n\
    \  acc = 0;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
     %s\
    \  }\n\
    \  last = acc;\n\
    \  print_int(acc);\n\
    \  return acc %% 5;\n\
     }\n"
    iters
    (String.concat "" (List.mapi clause_src clauses))

let clause_gen =
  QCheck.Gen.(
    map
      (fun (mul, modulus, bound, shift) ->
        { mul = 1 + mul; modulus = 2 + modulus; bound; shift })
      (quad (int_bound 6) (int_bound 7) (int_bound 9) (int_bound 5)))

let random_gen =
  QCheck.Gen.(
    pair
      (map (fun n -> 2 + n) (int_bound 18))
      (list_size (map (fun n -> 1 + n) (int_bound 3)) clause_gen))

let random_arbitrary = QCheck.make ~print:random_src random_gen

let cache_overflow =
  {|
int flag = 0;
int big[48000];
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    if (flag == 1) {
      int j;
      for (j = 0; j < 6000; j = j + 1) {
        big[j * 8] = j;
      }
    }
  }
  return 0;
}
|}

let red_zones =
  {|
int g[4];
int probe(int n) {
  int buf[4];
  int i;
  for (i = 0; i <= n; i = i + 1) {
    buf[i] = i;
  }
  return buf[0] + buf[3];
}
int main() {
  int c = getc();
  int s = 0;
  int k;
  for (k = 0; k < 40; k = k + 1) {
    if (c == 122) { s = s + probe(4); }
    else { s = s + probe(3); }
  }
  g[c - 93] = s;
  print_int(s);
  return 0;
}
|}
