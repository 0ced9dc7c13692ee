(* The Plaid benchmark: runs one workload for a fixed time, checks every
   output, and prints its metrics.  The last line of stdout is the result,
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   when untraced, the per-layer metrics when traced.  The line before it is
   the run record: the facts that bound the numbers' meaning.

     main.exe --workload map_plaid|map_st|serve_warm|run_replay
              --seconds S [--seed N] [--trace 0|1] [--out-dir DIR]
              [--commit ID] *)

module Stats = Perfbench_stats.Stats
open Bench

let default_seed = 2025

(* Later performance claims are re-checked on this seed as well. *)
let recheck_seed = 7

(* Each workload, and whether its request latencies are taken over kernels.
   A compile workload runs each of its 14 or 30 kernels a few times per run,
   too few compiles for a 99th percentile with 10 samples beyond it; its
   latency percentiles are taken over the kernels' compile times (each
   kernel's slot figure) instead, so request_us_p99 there is the slowest
   kernel's. *)
let workloads =
  [ ("map_plaid", (true, Map_flow.run ~plaid:true));
    ("map_st", (true, Map_flow.run ~plaid:false));
    ("serve_warm", (false, Serve_flow.run));
    ("run_replay", (false, Replay_flow.run)) ]

let tail_candidates = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

let untraced o = List.filter_map (fun (t, p) -> if t then None else Some p) o.passes
let traced o = List.filter_map (fun (t, p) -> if t then Some p else None) o.passes

(* {1 End-to-end} *)

(* Each operation's latency at full host speed, pass by pass. *)
let full_speed p = List.map2 (fun us host -> at_full_speed ~host us) p.ops_us p.host_us

(* Each operation slot's latency (the i-th operation of every pass): the
   mean of its faster half of passes.  Interference only lengthens an
   operation, and not all of it shows in the probe.  On map_st an operation
   keeps both cores busy and stops both at every stop-the-world minor
   collection, so another process taking either core stalls it at each of
   them: with one competing busy process on the 2-core host, map_st ran
   2.7x slower while the probe barely moved.  Passes that hit such a
   stretch fall in the slower half and are dropped. *)
let slot_figures passes =
  match List.map full_speed passes with
  | [] -> []
  | first :: _ as all ->
    List.mapi
      (fun i _ ->
        Stats.faster_half_mean (Array.of_list (List.filter_map (fun p -> List.nth_opt p i) all)))
      first

let full_speed_wall p = List.fold_left ( +. ) 0.0 (full_speed p) /. 1e6

(* One pass's time.  When a pass's operations are fixed (o.slots), it is
   the sum of the slot figures: slow stretches hit different slots in
   different passes, and the faster half drops them.  Otherwise each pass
   draws its own operations, and it is the median pass. *)
let pass_estimate o passes =
  if o.slots <> [] then List.fold_left ( +. ) 0.0 (slot_figures passes) /. 1e6
  else Stats.median (Array.of_list (List.map full_speed_wall passes))

(* The end-to-end metrics, lines for the reader, and record entries. *)
let end_to_end ~per_kernel o =
  let passes = untraced o in
  let lat =
    Array.of_list (if per_kernel then slot_figures passes else List.concat_map full_speed passes)
  in
  let n = Array.length lat in
  let walls = Array.of_list (List.map wall passes) in
  let hosts = Array.of_list (List.concat_map (fun p -> p.host_us) passes) in
  let compile_s = pass_estimate o passes in
  let completed =
    List.fold_left (fun acc p -> acc + List.length p.ops_us - List.length p.failures) 0 passes
  in
  (* the time the completed operations took: with fixed slots, that many
     passes at the pass estimate, so the slowed passes the slot figures
     drop do not count; otherwise the time spent in operations *)
  let busy_s =
    if o.slots <> [] then float_of_int (List.length passes) *. compile_s
    else List.fold_left (fun acc p -> acc +. full_speed_wall p) 0.0 passes
  in
  let metrics =
    [ ("setup_s", "s", Stats.median o.setups_s); ("compile_s", "s", compile_s);
      ("sim_cycles", "cycles", float_of_int o.sim_cycles);
      ("request_us_p50", "us", Stats.median lat);
      ("request_us_p99", "us", Stats.percentile lat 99.0);
      ("ops_per_s", "1/s", float_of_int completed /. busy_s);
      ("peak_heap_mb", "MB", float_of_int (Atomic.get heap_peak * (Sys.word_size / 8)) /. 1e6) ]
  in
  let wq1, wmed, wq3 = Stats.quartiles walls in
  let hq1, hmed, hq3 = Stats.quartiles hosts in
  let lines =
    [ Printf.sprintf
        "compile_s: %s over %d passes; measured pass walls %.4f s (quartiles %.4f .. %.4f)"
        (if o.slots <> [] then "sum of slot figures" else "median pass")
        (Array.length walls) wmed wq1 wq3;
      Printf.sprintf "host: probe %.1f us (quartiles %.1f .. %.1f); full speed reads %.0f" hmed hq1
        hq3 reference_probe_us;
      Printf.sprintf "request_us: %d %s; p99 has %d beyond it; highest percentile with 10 beyond: %s"
        n
        (if per_kernel then "kernel figures" else "requests")
        (Stats.beyond ~n 99.0)
        (match Stats.supported ~n tail_candidates with
        | Some p -> Printf.sprintf "p%g" p
        | None -> "none") ]
  in
  let record =
    [ ("setup_samples", Json.Num (float_of_int (Array.length o.setups_s)));
      ("pass_samples", Json.Num (float_of_int (Array.length walls)));
      ("request_samples", Json.Num (float_of_int n));
      ( "request_samples_are",
        Json.Str (if per_kernel then "kernel faster-half means" else "requests") );
      ("request_p99_beyond", Json.Num (float_of_int (Stats.beyond ~n 99.0)));
      ("pass_wall_s_quartiles", Json.Arr [ Json.Num wq1; Json.Num wmed; Json.Num wq3 ]);
      ("host_probe_us_quartiles", Json.Arr [ Json.Num hq1; Json.Num hmed; Json.Num hq3 ]) ]
  in
  (metrics, lines, record)

(* Each kernel or mapfile in its own row: its II, cycles and latency. *)
let per_operation o =
  let figures = slot_figures (untraced o) in
  let sigs = match o.passes with (_, p) :: _ -> p.signature | [] -> [] in
  if o.slots = [] || List.length figures <> List.length o.slots then []
  else
    [ ( "per_operation",
        Json.Arr
          (List.map2
             (fun name us ->
               Json.Obj
                 ([ ("name", Json.Str name); ("latency_us", Json.Num us) ]
                 @
                 match List.find_opt (fun (k, _, _) -> k = name) sigs with
                 | Some (_, ii, cycles) ->
                   [ ("ii", Json.Num (float_of_int ii)); ("cycles", Json.Num (float_of_int cycles)) ]
                 | None -> []))
             o.slots figures) ) ]

(* {1 Per-layer} *)

(* Per-layer metrics whose value is the mean self time per call of the
   benchmark span of that layer call, scaled from microseconds. *)
let span_layers =
  [ ("ir.lower_us", "ir.lower", 1.0); ("ir.mii_us", "ir.mii", 1.0);
    ("core.motif_gen_ms", "core.motif_gen", 1e-3); ("core.hier_map_ms", "core.hier_map", 1e-3);
    ("mapping.best_of_ms", "mapping.best_of", 1e-3); ("mapping.encode_us", "mapping.encode", 1.0);
    ("mapping.decode_us", "mapping.decode", 1.0); ("sim.verify_ms", "sim.verify", 1e-3);
    ("sim.host_invoke_us", "sim.host_invoke", 1.0); ("serve.parse_us", "serve.parse", 1.0);
    ("serve.fp_arch_us", "serve.fp_arch", 1.0); ("serve.fp_dfg_us", "serve.fp_dfg", 1.0);
    ("serve.cache_find_us", "serve.cache_find", 1.0); ("serve.store_get_us", "serve.store_get", 1.0) ]

(* Every per-layer metric with its unit, in print order.  A layer that a
   workload does not run reads 0. *)
let layer_units =
  [ ("ir.lower_us", "us"); ("ir.mii_us", "us"); ("core.motif_gen_ms", "ms");
    ("core.hier_map_ms", "ms"); ("core.ii_excess", "count"); ("mapping.best_of_ms", "ms");
    ("mapping.ii_attempts", "count"); ("mapping.wasted_ii_attempts", "count");
    ("mapping.route_finds", "count"); ("mapping.route_memo_hit_ratio", "ratio");
    ("mapping.pf_iterations", "count"); ("mapping.pf_reroute_ratio", "ratio");
    ("mapping.sa_accept_ratio", "ratio"); ("mapping.encode_us", "us"); ("mapping.decode_us", "us");
    ("util.pool_tasks", "count"); ("util.pool_busy_ratio", "ratio"); ("sim.verify_ms", "ms");
    ("sim.firings_per_host_s", "1/s"); ("sim.host_invoke_us", "us"); ("serve.parse_us", "us");
    ("serve.fp_arch_us", "us"); ("serve.fp_dfg_us", "us"); ("serve.cache_find_us", "us");
    ("serve.handle_self_us", "us"); ("serve.store_get_us", "us"); ("serve.hit_mem_ratio", "ratio");
    ("serve.hit_disk_ratio", "ratio"); ("obs.trace_overhead_ratio", "ratio") ]

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Handle's time net of the layer calls it makes, per request: the handle
   span minus the replayed lowering, key and cache lookup of the same
   request (the key's digest covers the arch and DFG fingerprints). *)
let handle_self ~full spans =
  let by_op = Hashtbl.create 1024 in
  List.iter
    (fun (s : Stats.span) ->
      Hashtbl.replace by_op s.op
        ((s.name, s.dur) :: Option.value (Hashtbl.find_opt by_op s.op) ~default:[]))
    spans;
  Hashtbl.fold
    (fun op parts acc ->
      match List.assoc_opt "serve.handle" parts with
      | Some h when List.mem_assoc "serve.fp_key" parts ->
        let part n = Option.value (List.assoc_opt n parts) ~default:0.0 in
        full op (h -. part "ir.lower" -. part "serve.fp_key" -. part "serve.cache_find") :: acc
      | _ -> acc)
    by_op []
  |> mean

let layer_metrics o spans =
  (* span times at full host speed, by the probe of the operation they
     belong to (operation id = pass index x operations per pass + position) *)
  let host = Hashtbl.create 4096 in
  List.iteri
    (fun index (_, p) ->
      let n = List.length p.host_us in
      List.iteri (fun i h -> Hashtbl.replace host ((index * n) + i) h) p.host_us)
    o.passes;
  let full op us =
    match Hashtbl.find_opt host op with Some h -> at_full_speed ~host:h us | None -> us
  in
  let selfs =
    List.map (fun ((s : Stats.span), self) -> (s, full s.op self)) (Stats.self_times spans)
  in
  let per_call name =
    mean
      (List.filter_map
         (fun ((s : Stats.span), self) -> if s.name = name then Some self else None)
         selfs)
  in
  let verify_s =
    List.fold_left
      (fun acc ((s : Stats.span), self) ->
        if s.name = "sim.verify" then acc +. (self /. 1e6) else acc)
      0.0 selfs
  in
  let firings = List.fold_left (fun acc p -> acc + p.firings) 0 (traced o) in
  let computed =
    List.map (fun (metric, name, scale) -> (metric, per_call name *. scale)) span_layers
    @ [ ("sim.firings_per_host_s", if verify_s = 0.0 then 0.0 else float_of_int firings /. verify_s);
        ("serve.handle_self_us", handle_self ~full spans);
        ( "obs.trace_overhead_ratio",
          if traced o = [] || untraced o = [] then 0.0
          else (pass_estimate o (traced o) /. pass_estimate o (untraced o)) -. 1.0 ) ]
    @ o.layers
  in
  List.map
    (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name computed) ~default:0.0))
    layer_units

(* {1 The run} *)

let failures o ~traced_run =
  let passes = List.map snd o.passes in
  o.setup_failures
  @ List.concat_map (fun p -> p.failures) passes
  @ (match passes with
    | first :: rest ->
      List.filter (fun p -> p.signature <> first.signature) rest
      |> List.map (fun _ -> "per-kernel II or cycles differ between passes")
    | [] -> [])
  @ if traced_run && Trace.dropped () > 0 then [ "trace ring dropped spans" ] else []

let main ~workload ~seed ~seconds ~traced_run ~dir ~commit =
  let per_kernel, run = List.assoc workload workloads in
  rm_rf dir;
  mkdir_p dir;
  let o = run { seed; seconds; traced = traced_run; dir } in
  let failures = failures o ~traced_run in
  let attempted =
    List.length o.setup_failures
    + List.fold_left (fun acc (_, p) -> acc + List.length p.ops_us) 0 o.passes
  in
  let failed = List.length failures in
  let metrics, lines, measured =
    if traced_run then begin
      let spans =
        export_spans ~path:(Filename.concat dir (Printf.sprintf "trace-%s.json" workload))
      in
      ( layer_metrics o spans,
        [ Printf.sprintf "trace: %d benchmark spans, %d dropped, in %s" (List.length spans)
            (Trace.dropped ()) dir ],
        [] )
    end
    else end_to_end ~per_kernel o
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-30s %14.6g %s\n" name v unit) metrics;
  List.iter print_endline lines;
  List.iteri (fun i f -> if i < 10 then Printf.printf "FAILED %s\n" f) failures;
  let num f = Json.Num f and int n = Json.Num (float_of_int n) in
  let record =
    [ ("workload", Json.Str workload); ("seed", int seed); ("default_seed", int default_seed);
      ("recheck_seed", int recheck_seed); ("traced", Json.Bool traced_run);
      ("seconds", num seconds); ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version); ("commit", Json.Str commit);
      ("mapper_seed", int mapper_seed); ("reference_probe_us", num reference_probe_us);
      ("attempted", int attempted); ("failed", int failed);
      ("fail_share", num (float_of_int failed /. float_of_int (max 1 attempted))) ]
    @ measured @ o.facts @ per_operation o
  in
  print_endline (Json.to_string (Json.Obj [ ("record", Json.Obj record) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0 && attempted > 0)); ("attempted", int attempted);
            ("failed", int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
                   metrics) ) ]))

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 0.0 in
  let trace = ref 0 and dir = ref ".perfbench" and commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME map_plaid, map_st, serve_warm or run_replay");
      ("--seed", Arg.Set_int seed, "N workload seed (default 2025)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (required)");
      ("--trace", Arg.Set_int trace, "0|1 traced run for the per-layer metrics");
      ("--out-dir", Arg.Set_string dir, "DIR scratch directory for stores and the trace");
      ("--commit", Arg.Set_string commit, "ID source revision to record") ]
  in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "main.exe --workload NAME --seconds S [options]"
   with Arg.Bad msg | Arg.Help msg -> die msg);
  if not (List.mem_assoc !workload workloads) then die ("unknown workload '" ^ !workload ^ "'");
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be given and positive";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced_run:(!trace = 1) ~dir:!dir
    ~commit:!commit
