(* Telemetry sink tests: counters, gauges, spans/timers, the JSON shape
   (sorted keys, escaping) and aggregation; plus the {!Capture} protocol
   every channel collects through, and the telemetry channel's order. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains msg needle hay =
  Alcotest.(check bool) (msg ^ ": " ^ needle) true (contains ~needle hay)

let test_counters () =
  let t = Telemetry.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Telemetry.counter t "a");
  Telemetry.incr t "a";
  Telemetry.incr t "a";
  Telemetry.count t "a" 5;
  Alcotest.(check int) "accumulates" 7 (Telemetry.counter t "a");
  Alcotest.(check int) "independent names" 0 (Telemetry.counter t "b")

let test_gauges () =
  let t = Telemetry.create () in
  Alcotest.(check (option (float 0.0))) "unset" None (Telemetry.gauge_value t "g");
  Telemetry.gauge t "g" 1.5;
  Telemetry.gauge t "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 2.5)
    (Telemetry.gauge_value t "g")

let test_span () =
  let t = Telemetry.create () in
  let v = Telemetry.span t "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns the result" 42 v;
  Alcotest.(check bool) "timer accumulated" true
    (Telemetry.timer_total t "work" >= 0.0);
  let v2 =
    Telemetry.span t "outer" (fun () ->
        Telemetry.span t "work" (fun () -> 1))
  in
  Alcotest.(check int) "nested span" 1 v2;
  Telemetry.timer_record t "ext" 0.25;
  Alcotest.(check (float 1e-9)) "recorded duration" 0.25
    (Telemetry.timer_total t "ext")

let test_span_reraises () =
  let t = Telemetry.create () in
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      Telemetry.span t "boom" (fun () -> raise Exit))

let test_json_shape () =
  let t = Telemetry.create ~label:{|sched/"std"|} () in
  Telemetry.incr t "zeta";
  Telemetry.incr t "alpha";
  Telemetry.gauge t "rate" 0.5;
  ignore (Telemetry.span t "phase" (fun () -> ()));
  let json = Telemetry.to_json t in
  check_contains "label escaped" {|"label":"sched/\"std\""|} json;
  check_contains "counter" {|"alpha":1|} json;
  check_contains "gauge" {|"rate":0.5|} json;
  check_contains "timer fields" {|"count":1|} json;
  (* deterministic key order: sorted *)
  let ia = String.index json 'a' in
  Alcotest.(check bool) "alpha before zeta" true
    (contains ~needle:"alpha"
       (String.sub json ia (String.length json - ia))
    && not (contains ~needle:"zeta" (String.sub json 0 ia)))

let test_aggregate () =
  let mk n =
    let t = Telemetry.create ~label:(Printf.sprintf "run%d" n) () in
    Telemetry.count t "spawns" n;
    Telemetry.gauge t "pct" (float_of_int n);
    t
  in
  let json = Telemetry.aggregate_json [ mk 1; mk 3 ] in
  check_contains "run count" {|"runs":2|} json;
  check_contains "sum" {|"sum":4|} json;
  check_contains "mean" {|"mean":2|} json;
  check_contains "min" {|"min":1|} json;
  check_contains "max" {|"max":3|} json

(* ---- The capture protocol ----------------------------------------------- *)

(* A bare channel of (label, content) pairs, arm switch observed. *)
let string_capture () =
  let armed = ref false in
  (Capture.create ~arm:(fun on -> armed := on) ~key:Fun.id, armed)

let test_capture_protocol () =
  let c, armed = string_capture () in
  Alcotest.(check bool) "inactive when created" false (Capture.active c);
  Capture.submit c ("lost", "") (* no-op without a collector *);
  let v, items =
    Capture.collect c (fun () ->
        Alcotest.(check bool) "active inside" true (Capture.active c);
        Alcotest.(check bool) "armed inside" true !armed;
        Capture.submit c ("one", "");
        Capture.submit c ("two", "");
        42)
  in
  Alcotest.(check int) "value passed through" 42 v;
  Alcotest.(check (list (pair string string)))
    "items submitted inside" [ ("one", ""); ("two", "") ] items;
  Alcotest.(check bool) "cleared after" false (Capture.active c);
  Alcotest.(check bool) "disarmed after" false !armed;
  let seen = ref [] in
  Capture.install c (Some (fun x -> seen := x :: !seen));
  Capture.submit c ("direct", "");
  Capture.install c None;
  Alcotest.(check int) "installed collector fed" 1 (List.length !seen)

let test_capture_cleared_on_raise () =
  let c, armed = string_capture () in
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      ignore (Capture.collect c (fun () -> Capture.submit c ("x", ""); raise Exit)));
  Alcotest.(check bool) "cleared on raise" false (Capture.active c);
  Alcotest.(check bool) "disarmed on raise" false !armed;
  let d, _ = string_capture () in
  let handed = ref false in
  (try
     Capture.collect_all
       [ Capture.Channel (c, fun _ -> handed := true);
         Capture.Channel (d, fun _ -> handed := true) ]
       (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "every channel cleared" false
    (Capture.active c || Capture.active d);
  Alcotest.(check bool) "nothing handed on" false !handed

(* Items come back by (label, content) whatever order they arrive in. *)
let test_capture_canonical_order () =
  let c, _ = string_capture () in
  let items = [ ("b", "2"); ("a", "9"); ("b", "1"); ("", "z") ] in
  let collect xs =
    snd (Capture.collect c (fun () -> List.iter (Capture.submit c) xs))
  in
  let expected = [ ("", "z"); ("a", "9"); ("b", "1"); ("b", "2") ] in
  Alcotest.(check (list (pair string string))) "canonical" expected
    (collect items);
  Alcotest.(check (list (pair string string))) "reversed submission" expected
    (collect (List.rev items));
  let d, _ = string_capture () in
  let got_c = ref [] and got_d = ref [] in
  Capture.collect_all
    [ Capture.Channel (c, fun xs -> got_c := xs);
      Capture.Channel (d, fun xs -> got_d := xs) ]
    (fun () ->
      Capture.submit d ("d", "");
      List.iter (Capture.submit c) items);
  Alcotest.(check (list (pair string string))) "collect_all: first channel"
    expected !got_c;
  Alcotest.(check (list (pair string string))) "collect_all: second channel"
    [ ("d", "") ] !got_d

(* Regression: the telemetry file used to order runs by (label, total
   cycles, taken insns, spawns), which ties for distinct runs, so
   [--jobs N] could reorder them. The capture's key is the whole
   deterministic JSON. *)
let test_telemetry_order_total () =
  let mk overrides =
    let t = Telemetry.create ~label:"man-1.5h1/standard/v1" () in
    Telemetry.count t "engine.total_cycles" 1000;
    Telemetry.count t "taken.insns" 900;
    Telemetry.count t "engine.spawns" 4;
    Telemetry.count t "engine.profiled_overrides" overrides;
    t
  in
  let lines xs =
    snd
      (Capture.collect Telemetry.capture (fun () ->
           List.iter (Capture.submit Telemetry.capture) xs))
    |> List.map Telemetry.to_json
  in
  let a = mk 3 and b = mk 0 in
  Alcotest.(check (list string)) "same lines either way" (lines [ a; b ])
    (lines [ b; a ])

let tests =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "spans and timers" `Quick test_span;
    Alcotest.test_case "span re-raises" `Quick test_span_reraises;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "aggregate" `Quick test_aggregate;
    Alcotest.test_case "run collector" `Quick test_capture_protocol;
    Alcotest.test_case "collector cleared on raise" `Quick
      test_capture_cleared_on_raise;
    Alcotest.test_case "collector canonical order" `Quick
      test_capture_canonical_order;
    Alcotest.test_case "telemetry order is total" `Quick
      test_telemetry_order_total;
  ]
