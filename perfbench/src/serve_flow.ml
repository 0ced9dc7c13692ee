(* serve_warm: protocol lines through parse_request -> handle ->
   write_response, one client in a closed loop, against a store that
   set-up has already filled.  No mapper runs; lowering, fingerprinting,
   the two cache tiers and store reads make up each request. *)

open Bench
module Service = Plaid_serve.Service
module Cache = Plaid_serve.Cache
module Suite = Plaid_workloads.Suite

(* Kernels that map quickly on both fabrics, so that set-up (which maps the
   whole working set, several times per run) stays short. *)
let kernels = [ "atax_u2"; "gemver_u4"; "dwconv_u5"; "fdtd_u4"; "doitgen_u4"; "bicg_u2"; "fc"; "conv2x2" ]

let archs = [ "plaid"; "st" ]
let key_seeds = [ mapper_seed; mapper_seed + 1; mapper_seed + 2 ]

(** One key of the working set, as the protocol line that requests it. *)
type key = { kernel : string; arch : string; kseed : int; line : string }

let line_of ~kernel ~arch kseed = Printf.sprintf "map kernel=%s arch=%s seed=%d" kernel arch kseed

let working_set =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun arch ->
          List.map
            (fun kseed ->
              { kernel; arch; kseed; line = line_of ~kernel ~arch kseed })
            key_seeds)
        archs)
    kernels

(** The fabrics by the names mapfiles and the serve protocol use. *)
type fabrics = { plaid : Plaid_core.Pcu.t; st : Plaid_arch.Arch.t }

let build_fabrics () =
  { plaid = Plaid_core.Pcu.build ~rows:2 ~cols:2 ~name:"plaid_2x2" ();
    st = Plaid_arch.Mesh.build Plaid_arch.Mesh.spatio_temporal_4x4 ~name:"st_4x4" }

let resolve f = function
  | "plaid_2x2" -> Some f.plaid.Plaid_core.Pcu.arch
  | "st_4x4" -> Some f.st
  | _ -> None

(** A stored mapfile with what checking it at set-up found. *)
type stored = { skey : key; blob : string; ii : int; cycles : int }

(** The store set-up fills: every working-set key mapped through
    [Service.handle] into a fresh store under [dir], one at a time, then
    each blob decoded, validated and simulated bit-exactly against the
    reference.  Sequential, so the heap grows the same way on every run. *)
type populated = {
  fabrics : fabrics;
  store_dir : string;
  stored : stored list;  (** in working-set order *)
  failures : string list;
}

let populate ~seed ~dir =
  rm_rf dir;
  let fabrics = build_fabrics () in
  let svc = Service.create ~cache:(Cache.create ~dir ()) () in
  let rng = Plaid_util.Rng.create seed in
  let check k =
    match Service.parse_request k.line with
    | Error e -> Error (k.line ^ ": " ^ e)
    | Ok req -> (
      match Service.handle svc req with
      | Service.Failure msg -> Error (k.line ^ ": " ^ msg)
      | Service.Payload { payload; _ } -> (
        match Plaid_mapping.Mapfile.of_string ~validate:true ~resolve:(resolve fabrics) payload with
        | Error e -> Error (k.line ^ ": " ^ e)
        | Ok m -> (
          match Plaid_sim.Cycle_sim.verify m (Spm_fill.random rng m) with
          | Error e -> Error (k.line ^ ": simulation mismatch: " ^ e)
          | Ok s ->
            Ok { skey = k; blob = payload; ii = m.Plaid_mapping.Mapping.ii;
                 cycles = s.Plaid_sim.Cycle_sim.cycles })))
  in
  let checked = List.map check working_set in
  {
    fabrics;
    store_dir = dir;
    stored = List.filter_map Result.to_option checked;
    failures = List.filter_map (function Error e -> Some e | Ok _ -> None) checked;
  }

(* The mapper names Service puts into cache keys. *)
let mapper_name plaid = if plaid then "hier:default" else "best_of:pf+sa:default"

type env = {
  pop : populated;
  svc : Service.t;
  cache : Cache.t;
  shadow : Cache.t;  (** same budget and store; only the traced replay uses it *)
  store : Plaid_serve.Store.t;
  expected : (string, string * string) Hashtbl.t;  (** line -> (cache key, stored blob) *)
  replies : out_channel;
  rng : Plaid_util.Rng.t;
  rank : int array;  (** key seeds, most requested first *)
  mem_budget : int;
}

(* The memory tier holds a third of the working set's bytes, so both tiers
   answer a share of requests. *)
let setup ~seed ~dir i =
  let pop = populate ~seed ~dir:(Filename.concat dir (Printf.sprintf "store-%d" i)) in
  let bytes = List.fold_left (fun acc s -> acc + String.length s.blob) 0 pop.stored in
  let mem_budget = bytes / 3 in
  let cache = Cache.create ~mem_budget ~dir:pop.store_dir () in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = s.skey in
      let arch, pcu =
        if k.arch = "plaid" then (pop.fabrics.plaid.Plaid_core.Pcu.arch, true) else (pop.fabrics.st, false)
      in
      let key =
        Plaid_serve.Fingerprint.key ~dfg:(Suite.dfg (Suite.find k.kernel)) ~arch
          ~mapper:(mapper_name pcu) ~seed:k.kseed
      in
      Hashtbl.replace expected k.line (key, s.blob))
    pop.stored;
  let rng = Plaid_util.Rng.create (seed + 1) in
  {
    pop;
    svc = Service.create ~cache ();
    cache;
    shadow = Cache.create ~mem_budget ~dir:pop.store_dir ();
    store = Plaid_serve.Store.open_dir pop.store_dir;
    expected;
    replies = open_out_bin (Filename.concat dir "replies.bin");
    rng;
    rank = Array.of_list (Plaid_util.Rng.shuffle_list rng key_seeds);
    mem_budget;
  }

let teardown env = close_out env.replies

(* One pass is a block of 32 requests: each kernel three times on Plaid and
   once on the baseline, so every block does the same lowering and
   fingerprinting work.  The key seed of each request is a skewed draw
   (60/30/10 over the three key seeds, ranked from the workload seed),
   which decides what the memory tier holds. *)
let block env =
  let draw () =
    let u = Plaid_util.Rng.int env.rng 10 in
    env.rank.(if u < 6 then 0 else if u < 9 then 1 else 2)
  in
  List.concat_map
    (fun kernel -> List.map (fun arch -> (kernel, arch)) [ "plaid"; "plaid"; "plaid"; "st" ])
    kernels
  |> List.map (fun (kernel, arch) -> line_of ~kernel ~arch (draw ()))
  |> Plaid_util.Rng.shuffle_list env.rng

(* Layer calls Service.handle makes, repeated after the request against a
   shadow cache, so the real cache's state is untouched.  In a traced run
   the shadow sees every request's key in the same order as the real cache
   (untraced passes feed it the precomputed key), so both tiers answer the
   replay as they answered the request.  True when the replay computed the
   same key and found the same blob. *)
let replay env ~op req (expected_key, expected_blob) =
  match req with
  | Service.Map { kernel; arch; seed; _ } ->
    span ~op "serve.replay" (fun () ->
        let plaid = arch = "plaid" in
        let a = if plaid then env.pop.fabrics.plaid.Plaid_core.Pcu.arch else env.pop.fabrics.st in
        let dfg = span ~op "ir.lower" (fun () -> Suite.dfg (Suite.find kernel)) in
        ignore (span ~op "serve.fp_arch" (fun () -> Plaid_serve.Fingerprint.arch a));
        ignore (span ~op "serve.fp_dfg" (fun () -> Plaid_serve.Fingerprint.dfg dfg));
        let key =
          span ~op "serve.fp_key" (fun () ->
              Plaid_serve.Fingerprint.key ~dfg ~arch:a ~mapper:(mapper_name plaid) ~seed)
        in
        key = expected_key
        &&
        match span ~op "serve.cache_find" (fun () -> Cache.find env.shadow ~key) with
        | Some (blob, Cache.Disk) ->
          ignore (span ~op "serve.store_get" (fun () -> Plaid_serve.Store.get env.store ~key));
          blob = expected_blob
        | Some (blob, _) -> blob = expected_blob
        | None -> false)
  | _ -> false

let pass ~shadowed env ~traced ~index =
  let lines = block env in
  let results =
    List.mapi
      (fun i line ->
        let op = (index * 32) + i in
        let (req, resp), us, host =
          timed (fun () ->
              let t0 = now () in
              span ~op "serve.op" (fun () ->
                  match span ~op "serve.parse" (fun () -> Service.parse_request line) with
                  | Error msg ->
                    let resp = Service.Failure msg in
                    Service.write_response env.replies resp;
                    (None, resp)
                  | Ok req ->
                    let resp =
                      span ~op "serve.handle" (fun () -> Service.handle ~queued_at:t0 env.svc req)
                    in
                    seek_out env.replies 0;
                    span ~op "serve.write" (fun () -> Service.write_response env.replies resp);
                    (Some req, resp)))
        in
        let failure =
          match (resp, Hashtbl.find_opt env.expected line) with
          | Service.Failure msg, _ -> Some (line ^ ": err " ^ msg)
          | _, None -> Some (line ^ ": set-up stored no blob")
          | Service.Payload { payload; _ }, Some (_, blob) when payload <> blob ->
            Some (line ^ ": payload differs from the stored blob")
          | Service.Payload _, Some ((key, _) as expected) -> (
            match req with
            | Some req when traced ->
              if replay env ~op req expected then None
              else Some (line ^ ": traced replay disagrees with the request")
            | _ ->
              if shadowed then ignore (Cache.find env.shadow ~key);
              None)
        in
        ((us, host), failure))
      lines
  in
  {
    ops_us = List.map (fun ((us, _), _) -> us) results;
    host_us = List.map (fun ((_, host), _) -> host) results;
    failures = List.filter_map snd results;
    cycles = 0;
    firings = 0;
    signature = [];
  }

let run cfg =
  (* the serving path always runs with the registry armed, as plaidc serve does *)
  Metrics.set_enabled true;
  let env, setups_s = timed_setups ~n:3 (setup ~seed:cfg.seed ~dir:cfg.dir) teardown in
  let before = Cache.stats env.cache in
  let passes = loop cfg ~arm:(arm ~metrics_always:true) (pass ~shadowed:cfg.traced env) in
  let after = Cache.stats env.cache in
  teardown env;
  let requests = List.fold_left (fun acc (_, p) -> acc + List.length p.ops_us) 0 passes in
  let hit_mem = after.Cache.hit_mem - before.Cache.hit_mem in
  let hit_disk = after.Cache.hit_disk - before.Cache.hit_disk in
  {
    setups_s;
    passes;
    sim_cycles = List.fold_left (fun acc s -> acc + s.cycles) 0 env.pop.stored;
    setup_failures = env.pop.failures;
    slots = [];
    facts =
      [ ("pool_width", Json.Num 0.0);
        ("working_set_keys", Json.Num (float_of_int (List.length working_set)));
        ("mem_budget_bytes", Json.Num (float_of_int env.mem_budget));
        ("hit_mem", Json.Num (float_of_int hit_mem));
        ("hit_disk", Json.Num (float_of_int hit_disk));
        ("requests", Json.Num (float_of_int requests)) ];
    layers =
      [ ("serve.hit_mem_ratio", ratio hit_mem requests);
        ("serve.hit_disk_ratio", ratio hit_disk requests) ];
  }
