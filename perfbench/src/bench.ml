(* The harness every workload shares: timed set-up, the closed measuring
   loop, and the per-layer figures read back from the exported trace. *)

module Trace = Plaid_obs.Trace
module Metrics = Plaid_obs.Metrics
module Json = Plaid_obs.Json

let now = Trace.Clock.now_ns
let since = Trace.Clock.seconds_since

(* The mapper seed of every compilation the benchmark asks for: plaidc's
   default.  Compile time varies several-fold between mapper seeds (one
   kernel can take 0.15 s at one seed and 4 s at the next), so the workload
   seed varies the order, the data and the key draw instead; the work done
   per pass stays the same and timings compare across seeds. *)
let mapper_seed = 2025

(* Spans the benchmark records around each call into a layer.  The
   category keeps them apart from the spans the libraries record. *)
let span ~op name f = Trace.with_span ~cat:"bench" ~args:[ ("op", string_of_int op) ] name f

(* Host speed.  The shared 2-core host this benchmark was tuned on runs in
   two modes: full speed, and spells of a second to most of a minute in
   which the workloads run 1.35x to 1.65x slower, CPU time stretching with
   wall time.  A fixed probe, run after every operation, measures the
   host's speed at that moment and slows by a similar factor (1.55x):
   strided writes over a 128 KiB buffer, then a dependent floating-point
   chain.  It runs four times and only the last three runs are timed, so
   they start from the cache state its own first run left, whatever the
   operation before it touched.  The reading is their median: a single
   run is thrown off by interrupts (back-to-back runs differ by a tenth,
   and one in twenty reads 1.5x the median), and the median of three
   drops such a run.  It allocates nothing, so no garbage-collector
   setting of the program can move it either. *)
type probe_buffers = { bytes : Bytes.t; floats : float array }

(* One set of buffers per domain, so that domains probing at once do not
   share cache lines. *)
let probe_buffers =
  Domain.DLS.new_key (fun () -> { bytes = Bytes.make (1 lsl 17) '\000'; floats = Array.make 512 1.0 })

let probe_once b =
  for k = 0 to (Bytes.length b.bytes / 8) - 1 do
    Bytes.set b.bytes (k * 8) (Char.chr (k land 127))
  done;
  let s = ref 0.0 in
  for _ = 1 to 30 do
    for i = 0 to Array.length b.floats - 1 do
      s := !s +. (b.floats.(i) *. float_of_int i)
    done
  done;
  ignore (Sys.opaque_identity !s)

let probe () =
  let b = Domain.DLS.get probe_buffers in
  probe_once b;
  let run () =
    let t0 = now () in
    probe_once b;
    since t0 *. 1e6
  in
  let r1 = run () in
  let r2 = run () in
  let r3 = run () in
  Perfbench_stats.Stats.median [| r1; r2; r3 |]

(* On a pool, every domain probes at once (each waits up to 1 ms for the
   others to start), since a slow spell can hit one core and not the
   other; the reading is their mean.  The probe tasks are kept out of the
   pool's counters and spans. *)
let probe_on = function
  | None -> probe ()
  | Some pool ->
    let tracing = Trace.enabled () and counting = Metrics.enabled () in
    Trace.set_enabled false;
    Metrics.set_enabled false;
    let width = Plaid_util.Pool.size pool in
    let arrived = Atomic.make 0 in
    let task () =
      Atomic.incr arrived;
      let t0 = now () in
      while Atomic.get arrived < width && since t0 < 0.001 do
        Domain.cpu_relax ()
      done;
      probe ()
    in
    let ps = Plaid_util.Pool.run pool (List.init width (fun _ -> task)) in
    Trace.set_enabled tracing;
    Metrics.set_enabled counting;
    List.fold_left ( +. ) 0.0 ps /. float_of_int width

(* The probe's time at full speed on the 2-core Intel Xeon host the
   benchmark was defined on.  Timings are reported as measured time x
   (reference_probe_us / probe time around the operation): the time at
   full host speed, equal to the measured time when the host runs at full
   speed.  On another host the constant only rescales every timing. *)
let reference_probe_us = 70.0

(* The workload's own heap: the largest major heap seen after an
   operation or at the end of a major GC cycle, from the start of the
   measuring loop, so set-up's peak does not count. *)
let heap_peak = Atomic.make 0

let sample_heap () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  let rec raise_to w =
    let p = Atomic.get heap_peak in
    if w > p && not (Atomic.compare_and_set heap_peak p w) then raise_to w
  in
  raise_to words

let last_probe = ref None

(** Runs one operation: its latency in microseconds and the mean of the
    host-speed probes taken just before and just after it, on every domain
    of [pool] when given. *)
let timed ?pool f =
  let before = match !last_probe with Some p -> p | None -> probe_on pool in
  let t0 = now () in
  let r = f () in
  let us = since t0 *. 1e6 in
  sample_heap ();
  let after = probe_on pool in
  last_probe := Some after;
  (r, us, (before +. after) /. 2.0)

(** [us] measured while the probe read [host], at full host speed. *)
let at_full_speed ~host us = us *. reference_probe_us /. host

(** What one pass over a workload's operation list did. *)
type pass = {
  ops_us : float list;  (** latency of each operation of the pass *)
  host_us : float list;  (** the host-speed probe around each operation *)
  failures : string list;  (** one message per failed operation *)
  cycles : int;  (** simulated cycles, summed over the pass's kernels *)
  firings : int;  (** simulated FU firings, summed likewise *)
  signature : (string * int * int) list;
      (** (kernel, II, cycles) per operation; must repeat across passes *)
}

let wall p = List.fold_left ( +. ) 0.0 p.ops_us /. 1e6

(** What a workload run produced, before the shared statistics. *)
type outcome = {
  setups_s : float array;
  passes : (bool * pass) list;  (** (traced, pass) in run order *)
  sim_cycles : int;
  setup_failures : string list;
  facts : (string * Json.t) list;  (** workload facts for the run record *)
  slots : string list;  (** what each operation slot of a pass runs, when fixed *)
  layers : (string * float) list;  (** workload-specific per-layer figures *)
}

type config = { seed : int; seconds : float; traced : bool; dir : string }

(* Set up [n] times and keep the last environment: set-up time is reported
   as the median, at full host speed, so one slow set-up does not move it. *)
let timed_setups ~n setup teardown =
  let rec go i times =
    let env, us, host = timed (fun () -> setup i) in
    let times = (at_full_speed ~host us /. 1e6) :: times in
    if i + 1 < n then begin
      teardown env;
      go (i + 1) times
    end
    else (env, Array.of_list (List.rev times))
  in
  go 0 []

let span_capacity = 1 lsl 18

(* Spans are kept until the end of the run; stop tracing passes well before
   a ring could overflow, so the export is complete. *)
let room_for_spans =
  let checks = ref 0 in
  fun () ->
    incr checks;
    !checks mod 8 <> 1 || Trace.span_count () < span_capacity / 2

(** Runs passes back to back for about [seconds], and at least [min_passes]
    of them.  A pass is started only while the previous one would still
    end in time.  In a traced run every second pass is traced: [arm true]
    runs before it and [arm false] after it.  The heap peak is tracked from
    the start of the loop, after a compaction. *)
let loop ?(min_passes = 3) cfg ~arm run_pass =
  Gc.compact ();
  Gc.full_major ();
  Atomic.set heap_peak 0;
  sample_heap ();
  let alarm = Gc.create_alarm sample_heap in
  let t0 = now () in
  let rec go i acc last =
    if i >= min_passes && since t0 +. last > cfg.seconds then begin
      Gc.delete_alarm alarm;
      List.rev acc
    end
    else begin
      let traced = cfg.traced && i mod 2 = 1 && room_for_spans () in
      arm traced;
      let p = run_pass ~traced ~index:i in
      arm false;
      go (i + 1) ((traced, p) :: acc) (wall p)
    end
  in
  go 0 [] 0.0

(** Arms tracing and, unless [metrics_always], the metrics registry for a
    traced pass.  Call once before the loop to size the span rings. *)
let arm ~metrics_always =
  Trace.set_capacity span_capacity;
  fun on ->
    Trace.set_enabled on;
    if not metrics_always then Metrics.set_enabled on

let counter snap name =
  Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(** The run's spans, exported once as Chrome JSON to [path], and the
    benchmark's own spans read back from that export. *)
let export_spans ~path =
  let json = Trace.export () in
  let oc = open_out_bin path in
  output_string oc (Json.to_string json);
  close_out oc;
  let num k ev = Option.bind (Json.member k ev) Json.num |> Option.value ~default:0.0 in
  let str k ev = Option.bind (Json.member k ev) Json.str in
  Option.value (Json.member "traceEvents" json) ~default:Json.Null
  |> Json.to_list
  |> List.filter_map (fun ev ->
         match (str "cat" ev, str "name" ev) with
         | Some "bench", Some name ->
           let op =
             Option.bind (Json.member "args" ev) (str "op")
             |> Fun.flip Option.bind int_of_string_opt
             |> Option.value ~default:(-1)
           in
           Some
             {
               Perfbench_stats.Stats.name;
               op;
               tid = int_of_float (num "tid" ev);
               start = num "ts" ev;
               dur = num "dur" ev;
             }
         | _ -> None)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path
