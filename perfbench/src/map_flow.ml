(* map_plaid and map_st: the `plaidc map` flow, closed loop, one kernel at
   a time — lower, map, check bit-exactly against the reference
   interpreter, encode the mapfile. *)

open Bench
module Suite = Plaid_workloads.Suite

(* Kernels that map at MII on the first attempt, then two whose II search
   overshoots MII.  The five slowest overshooting kernels (gemm_u4,
   durbin_u4, jacobi, gesummv_u4, cholesky_u4) take about 54 s of a 58 s
   cold Plaid suite and are left out only for run length. *)
let plaid_kernels =
  [ "atax_u2"; "atax_u4"; "bicg_u4"; "gemver_u4"; "gesummv_u2"; "conv3x3"; "dwconv_u5";
    "fdtd_u4"; "jacobi_u4"; "doitgen_u2"; "doitgen_u4"; "gramsc_u4"; "cholesky_u2"; "seidel" ]

let pool_width = 2

type fabric =
  | Plaid of Plaid_core.Pcu.t
  | St of Plaid_arch.Arch.t * Plaid_util.Pool.t

type env = {
  fabric : fabric;
  kernels : (Suite.entry * Plaid_sim.Spm.t) array;  (** in the seed's order *)
}

let arch_of = function Plaid p -> p.Plaid_core.Pcu.arch | St (a, _) -> a

let setup ~plaid ~seed () =
  let fabric =
    if plaid then Plaid (Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" ())
    else
      St
        ( Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st_4x4",
          Plaid_util.Pool.create ~size:pool_width () )
  in
  (* routing tables are built lazily on first use; build them here so the
     first pass does not pay for them *)
  ignore (Plaid_arch.Arch.route_tables (arch_of fabric));
  let names = if plaid then plaid_kernels else List.map Suite.name Suite.table2 in
  let rng = Plaid_util.Rng.create seed in
  let kernels =
    Plaid_util.Rng.shuffle_list rng names
    |> List.map (fun name ->
           let entry = Suite.find name in
           let k = Plaid_ir.Unroll.apply entry.Suite.base entry.Suite.unroll in
           let spm_seed = Plaid_util.Rng.int rng 1_000_000 in
           (entry, Plaid_sim.Spm.of_kernel k ~params:(Suite.params entry) ~seed:spm_seed))
    |> Array.of_list
  in
  { fabric; kernels }

let teardown env = match env.fabric with St (_, pool) -> Plaid_util.Pool.shutdown pool | Plaid _ -> ()

let best_of_algos =
  [ Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default;
    Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.default ]

(* II - MII summed over the traced passes' kernels, for core.ii_excess. *)
let ii_excess = ref 0

let compile env ~traced ~op entry spm =
  let dfg = span ~op "ir.lower" (fun () -> Suite.dfg entry) in
  let mapping, mii =
    match env.fabric with
    | Plaid plaid ->
      let o =
        span ~op "core.hier_map" (fun () ->
            Plaid_core.Hier_mapper.map ~plaid ~seed:mapper_seed dfg)
      in
      (o.Plaid_core.Hier_mapper.mapping, o.Plaid_core.Hier_mapper.mii)
    | St (arch, pool) ->
      let o =
        span ~op "mapping.best_of" (fun () ->
            Plaid_mapping.Driver.best_of ~pool ~algos:best_of_algos ~arch ~dfg
              ~seed:mapper_seed ())
      in
      (o.Plaid_mapping.Driver.mapping, o.Plaid_mapping.Driver.mii)
  in
  match mapping with
  | None -> Error "no mapping"
  | Some m -> (
    if traced then
      (match env.fabric with
      | Plaid _ -> ii_excess := !ii_excess + m.Plaid_mapping.Mapping.ii - mii
      | St _ -> ());
    match span ~op "sim.verify" (fun () -> Plaid_sim.Cycle_sim.verify m spm) with
    | Error msg -> Error ("simulation mismatch: " ^ msg)
    | Ok stats ->
      ignore (span ~op "mapping.encode" (fun () -> Plaid_mapping.Mapfile.to_string m));
      Ok (m.Plaid_mapping.Mapping.ii, stats, dfg))

(* Layer calls the mapper makes internally, repeated after the timed
   operation so the traced run can time them on their own. *)
let replay_inner env ~op dfg =
  let arch = arch_of env.fabric in
  ignore (span ~op "ir.mii" (fun () ->
              Plaid_ir.Analysis.mii dfg (Plaid_arch.Arch.capacity arch)));
  match env.fabric with
  | Plaid _ ->
    ignore (span ~op "core.motif_gen" (fun () ->
                Plaid_core.Hier_mapper.default_hier ~seed:mapper_seed dfg))
  | St _ -> ()

let pass env ~traced ~index =
  let n = Array.length env.kernels in
  let results =
    Array.to_list env.kernels
    |> List.mapi (fun i (entry, spm) ->
           let op = (index * n) + i in
           let name = Suite.name entry in
           let pool = match env.fabric with St (_, pool) -> Some pool | Plaid _ -> None in
           let r, us, host =
             timed ?pool (fun () -> span ~op "map.op" (fun () -> compile env ~traced ~op entry spm))
           in
           (match r with Ok (_, _, dfg) when traced -> replay_inner env ~op dfg | _ -> ());
           (name, (us, host), r))
  in
  let ok = List.filter_map (function n, _, Ok (ii, s, _) -> Some (n, ii, s) | _ -> None) results in
  {
    ops_us = List.map (fun (_, (us, _), _) -> us) results;
    host_us = List.map (fun (_, (_, host), _) -> host) results;
    failures =
      List.filter_map (function n, _, Error e -> Some (n ^ ": " ^ e) | _ -> None) results;
    cycles = List.fold_left (fun acc (_, _, s) -> acc + s.Plaid_sim.Cycle_sim.cycles) 0 ok;
    firings = List.fold_left (fun acc (_, _, s) -> acc + s.Plaid_sim.Cycle_sim.fu_firings) 0 ok;
    signature =
      List.sort compare (List.map (fun (n, ii, s) -> (n, ii, s.Plaid_sim.Cycle_sim.cycles)) ok);
  }

let run ~plaid cfg =
  let env, setups_s =
    timed_setups ~n:15 (fun _ -> setup ~plaid ~seed:cfg.seed ()) teardown
  in
  let passes = loop cfg ~arm:(arm ~metrics_always:false) (pass env) in
  teardown env;
  let snap = Metrics.snapshot () in
  let traced = List.length (List.filter fst passes) in
  let per_pass name =
    if traced = 0 then 0.0 else float_of_int (counter snap name) /. float_of_int traced
  in
  let traced_wall_ns =
    List.fold_left (fun acc (t, p) -> if t then acc +. (wall p *. 1e9) else acc) 0.0 passes
  in
  let width = match env.fabric with St _ -> pool_width | Plaid _ -> 0 in
  let layers =
    [ ("core.ii_excess", if traced = 0 then 0.0 else float_of_int !ii_excess /. float_of_int traced);
      (* counters the libraries keep while the registry is armed (traced passes) *)
      ("mapping.ii_attempts", per_pass "driver/ii_attempts");
      ("mapping.wasted_ii_attempts", per_pass "driver/wasted_ii_attempts");
      ("mapping.route_finds", per_pass "route/finds");
      ( "mapping.route_memo_hit_ratio",
        ratio (counter snap "route/memo_hits") (counter snap "route/finds") );
      ("mapping.pf_iterations", per_pass "pf/iterations");
      ( "mapping.pf_reroute_ratio",
        ratio (counter snap "pf/rerouted_edges")
          (counter snap "pf/rerouted_edges" + counter snap "pf/kept_edges") );
      ("mapping.sa_accept_ratio", ratio (counter snap "sa/accepts") (counter snap "sa/moves"));
      ("util.pool_tasks", per_pass "pool/tasks");
      ( "util.pool_busy_ratio",
        if width = 0 || traced_wall_ns = 0.0 then 0.0
        else float_of_int (counter snap "pool/busy_ns") /. (float_of_int width *. traced_wall_ns) ) ]
  in
  let sim_cycles = match passes with (_, p) :: _ -> p.cycles | [] -> 0 in
  {
    setups_s;
    passes;
    sim_cycles;
    setup_failures = [];
    slots = Array.to_list (Array.map (fun (e, _) -> Suite.name e) env.kernels);
    facts =
      [ ("fabric", Json.Str (arch_of env.fabric).Plaid_arch.Arch.name);
        ("pool_width", Json.Num (float_of_int width)) ];
    layers;
  }
