open Plaid_workloads

type t = {
  seed : int;
  outer_trips : int;
  pool : Plaid_util.Pool.t option;
  cache : Plaid_serve.Cache.t option;  (* persistent mapping cache *)
  fabrics : (string * Plaid_core.Fabrics.built Lazy.t) list;  (* by short name *)
  mappings : (string, Plaid_mapping.Mapping.t option) Plaid_util.Memo.t;
  spatials : (string, (Plaid_spatial.Spatial.result, string) result) Plaid_util.Memo.t;
}

let create ?(seed = 2025) ?(outer = 16) ?pool ?cache () =
  {
    seed;
    outer_trips = outer;
    pool;
    cache;
    fabrics =
      List.map (fun (f : Plaid_core.Fabrics.named) -> (f.short, lazy (f.build ())))
        Plaid_core.Fabrics.registry;
    mappings = Plaid_util.Memo.create 64;
    spatials = Plaid_util.Memo.create 64;
  }

let outer t = t.outer_trips

let pool t = t.pool

let fabric t name =
  match List.assoc_opt name t.fabrics with
  | Some f -> Lazy.force f
  | None -> invalid_arg ("Ctx.fabric: unknown fabric " ^ name)

let pcu t name =
  match (fabric t name).Plaid_core.Fabrics.pcu with
  | Some p -> p
  | None -> invalid_arg ("Ctx.pcu: not a Plaid fabric: " ^ name)

(* Concurrent forcing of a lazy raises in OCaml 5, so before tasks share a
   context the architectures must be built once, on the spawning domain. *)
let prewarm t = List.iter (fun (_, f) -> ignore (Lazy.force f)) t.fabrics

let map t name entry =
  Plaid_util.Memo.find_or_add t.mappings (name ^ "/" ^ Suite.name entry) (fun () ->
      let b = fabric t name and dfg = Suite.dfg entry in
      Plaid_serve.Cache.with_mapping t.cache ~arch:b.arch
        ~mapper:(Plaid_core.Fabrics.mapper_id b) ~dfg ~seed:t.seed (fun () ->
          Plaid_core.Fabrics.map ?pool:t.pool ~seed:t.seed b dfg))

let map_plaid_generic t algo entry =
  let name = match algo with `Sa -> "plaid-sa" | `Pf -> "plaid-pf" in
  Plaid_util.Memo.find_or_add t.mappings (name ^ "/" ^ Suite.name entry) (fun () ->
      let arch = (fabric t "plaid").arch and dfg = Suite.dfg entry in
      let driver_algo =
        match algo with
        | `Sa -> Plaid_mapping.Driver.Sa Plaid_mapping.Anneal.default
        | `Pf -> Plaid_mapping.Driver.Pf Plaid_mapping.Pathfinder.default
      in
      Plaid_serve.Cache.with_mapping t.cache ~arch
        ~mapper:(Plaid_core.Fabrics.driver_mapper_id algo) ~dfg ~seed:t.seed (fun () ->
          (Plaid_mapping.Driver.map ?pool:t.pool ~algo:driver_algo ~arch ~dfg ~seed:t.seed ())
            .Plaid_mapping.Driver.mapping))

let spatial t entry =
  Plaid_util.Memo.find_or_add t.spatials ("spatial/" ^ Suite.name entry) (fun () ->
      Plaid_spatial.Spatial.run ~seed:t.seed (Suite.dfg entry))

(* Outer-scaled cycle count: the modulo kernel admits one iteration per II,
   the pipeline fills once per invocation of the whole loop nest. *)
let cycles t (m : Plaid_mapping.Mapping.t) =
  let total_iters = t.outer_trips * m.dfg.Plaid_ir.Dfg.trip in
  (m.ii * (total_iters - 1)) + Plaid_mapping.Mapping.makespan m

(* The partitioner's spill buffers cover one inner-loop pass (buf_len is
   trip-sized), so a multi-segment kernel alternates its segments — and
   reloads configurations — once per outer iteration.  A single-segment
   kernel keeps its configuration for the whole run and only pays the
   pipeline refill per outer iteration. *)
let spatial_cycles t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [ m ] ->
    (* one frozen configuration streams the whole iteration space *)
    (m.ii * ((t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) - 1))
    + Plaid_mapping.Mapping.makespan m + Plaid_spatial.Spatial.reconfig_cycles
  | ms ->
    t.outer_trips
    * List.fold_left
        (fun acc (m : Plaid_mapping.Mapping.t) ->
          acc + Plaid_mapping.Mapping.perf_cycles m + Plaid_spatial.Spatial.reconfig_cycles)
        0 ms

let energy t m =
  Plaid_model.Tech.energy_pj ~power_uw:(Plaid_model.Power.fabric_total m) ~cycles:(cycles t m)

let spatial_energy t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [ m ] ->
    Plaid_model.Tech.energy_pj
      ~power_uw:(Plaid_model.Power.fabric_total m)
      ~cycles:(spatial_cycles t r)
  | ms ->
    float_of_int t.outer_trips
    *. List.fold_left
         (fun acc (m : Plaid_mapping.Mapping.t) ->
           let c =
             Plaid_mapping.Mapping.perf_cycles m + Plaid_spatial.Spatial.reconfig_cycles
           in
           acc
           +. Plaid_model.Tech.energy_pj ~power_uw:(Plaid_model.Power.fabric_total m) ~cycles:c)
         0.0 ms

let perf_per_area t (m : Plaid_mapping.Mapping.t) =
  let iters = float_of_int (t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) in
  let seconds = float_of_int (cycles t m) *. Plaid_model.Tech.cycle_ns *. 1e-9 in
  iters /. seconds /. (Plaid_model.Area.fabric_total m.arch /. 1e6)

let spatial_perf_per_area t (r : Plaid_spatial.Spatial.result) =
  match r.mappings with
  | [] -> 0.0
  | m :: _ ->
    let iters = float_of_int (t.outer_trips * m.dfg.Plaid_ir.Dfg.trip) in
    let seconds = float_of_int (spatial_cycles t r) *. Plaid_model.Tech.cycle_ns *. 1e-9 in
    iters /. seconds /. (Plaid_model.Area.fabric_total m.arch /. 1e6)
