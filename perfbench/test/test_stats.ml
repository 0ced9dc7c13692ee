(* The benchmark's own statistics: the tail-percentile rule, self time,
   and the quartile spread the benchmark's steadiness is judged by. *)

module Stats = Perfbench_stats.Stats

let close = Alcotest.float 1e-9

let test_beyond () =
  Alcotest.(check int) "p99 of 1000 leaves 10" 10 (Stats.beyond ~n:1000 99.0);
  Alcotest.(check int) "p99 of 999 leaves 9" 9 (Stats.beyond ~n:999 99.0);
  Alcotest.(check int) "p50 of 20 leaves 10" 10 (Stats.beyond ~n:20 50.0);
  Alcotest.(check int) "p100 leaves none" 0 (Stats.beyond ~n:7 100.0)

let test_supported () =
  let candidates = [ 50.0; 90.0; 99.0; 99.9 ] in
  let check name n want =
    Alcotest.(check (option (float 0.0))) name want (Stats.supported ~n candidates)
  in
  check "1000 samples support p99" 1000 (Some 99.0);
  check "999 samples fall back to p90" 999 (Some 90.0);
  check "10000 samples support p99.9" 10000 (Some 99.9);
  check "20 samples support p50" 20 (Some 50.0);
  check "19 samples support nothing" 19 None;
  Alcotest.(check (option (float 0.0)))
    "candidate order does not matter" (Some 99.0)
    (Stats.supported ~n:1000 [ 99.0; 50.0; 90.0 ])

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "nearest-rank p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.check close "nearest-rank p99" 99.0 (Stats.percentile a 99.0);
  Alcotest.check close "p100 is the maximum" 100.0 (Stats.percentile a 100.0);
  Alcotest.check close "even median interpolates" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_faster_half_mean () =
  Alcotest.check close "odd count keeps the middle value" 2.0
    (Stats.faster_half_mean [| 9.0; 1.0; 3.0; 2.0; 100.0 |]);
  Alcotest.check close "even count keeps half" 1.5 (Stats.faster_half_mean [| 4.0; 2.0; 1.0; 3.0 |]);
  Alcotest.check close "one sample is itself" 7.0 (Stats.faster_half_mean [| 7.0 |]);
  Alcotest.check close "slow outliers do not move it" 2.0
    (Stats.faster_half_mean [| 2.0; 2.0; 2.0; 50.0; 90.0 |])

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let test_quartiles () =
  let check name values (q1, m, q3) =
    let a, b, c = Stats.quartiles (Array.of_list values) in
    Alcotest.check close (name ^ " q1") q1 a;
    Alcotest.check close (name ^ " median") m b;
    Alcotest.check close (name ^ " q3") q3 c
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two samples extrapolate" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "three samples" [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check "seven samples" [ 5.0; 1.0; 4.0; 2.0; 3.0; 10.0; 7.0 ] (2.0, 4.0, 7.0);
  Alcotest.check close "spread is (q3 - q1) / median" 1.0
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "a constant sample has no spread" 0.0 (Stats.spread [| 3.0; 3.0; 3.0 |])

let span ?(tid = 1) name start dur = { Stats.name; op = 0; tid; start; dur }

let self_of results name =
  match List.find_opt (fun ((s : Stats.span), _) -> s.name = name) results with
  | Some (_, self) -> self
  | None -> Alcotest.failf "no span %s" name

let test_self_nested_and_siblings () =
  let spans =
    [ span "leaf" 45.0 10.0; span "second" 40.0 30.0; span "root" 0.0 100.0;
      span "first" 10.0 20.0; span "after" 120.0 5.0 ]
  in
  let r = Stats.self_times spans in
  Alcotest.check close "root minus its two children" 50.0 (self_of r "root");
  Alcotest.check close "first child has no children" 20.0 (self_of r "first");
  Alcotest.check close "second child minus the leaf" 20.0 (self_of r "second");
  Alcotest.check close "leaf" 10.0 (self_of r "leaf");
  Alcotest.check close "a later top-level span" 5.0 (self_of r "after")

let test_self_edges () =
  (* a child that starts with its parent, siblings that touch, and a span
     on another thread that overlaps but is nobody's child *)
  let spans =
    [ span "parent" 0.0 10.0; span "a" 0.0 4.0; span "b" 4.0 6.0;
      span ~tid:2 "other" 2.0 5.0 ]
  in
  let r = Stats.self_times spans in
  Alcotest.check close "parent fully covered" 0.0 (self_of r "parent");
  Alcotest.check close "a" 4.0 (self_of r "a");
  Alcotest.check close "touching sibling is not a child" 6.0 (self_of r "b");
  Alcotest.check close "other thread" 5.0 (self_of r "other")

let () =
  Alcotest.run "perfbench_stats"
    [ ( "percentiles",
        [ Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "highest supported percentile" `Quick test_supported;
          Alcotest.test_case "nearest rank" `Quick test_percentile ] );
      ("slot figure", [ Alcotest.test_case "faster-half mean" `Quick test_faster_half_mean ]);
      ("spread", [ Alcotest.test_case "quartiles as Python" `Quick test_quartiles ]);
      ( "self time",
        [ Alcotest.test_case "nested and sibling spans" `Quick test_self_nested_and_siblings;
          Alcotest.test_case "shared starts, touching siblings, threads" `Quick test_self_edges ] ) ]
