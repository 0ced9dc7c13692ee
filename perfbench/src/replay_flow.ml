(* run_replay: the `plaidc run` flow over the mapfiles set-up stored,
   closed loop — decode and validate, fill the scratchpad, simulate
   bit-exactly against the reference, price the host invocation.  The only
   workload where the simulator and mapfile decoding dominate. *)

open Bench
module Serve = Serve_flow

type env = {
  pop : Serve.populated;
  order : Serve.stored array;  (** replay order, drawn from the workload seed *)
  rng : Plaid_util.Rng.t;
}

let setup ~seed ~dir i =
  let pop = Serve.populate ~seed ~dir:(Filename.concat dir (Printf.sprintf "store-%d" i)) in
  let rng = Plaid_util.Rng.create (seed + 1) in
  let order = Array.of_list pop.stored in
  Plaid_util.Rng.shuffle rng order;
  { pop; order; rng }

let replay env ~op (s : Serve.stored) =
  match
    span ~op "mapping.decode" (fun () ->
        Plaid_mapping.Mapfile.of_string ~validate:true ~resolve:(Serve.resolve env.pop.fabrics) s.blob)
  with
  | Error e -> Error ("decode: " ^ e)
  | Ok m -> (
    let spm = Spm_fill.random env.rng m in
    match span ~op "sim.verify" (fun () -> Plaid_sim.Cycle_sim.verify m spm) with
    | Error e -> Error ("simulation mismatch: " ^ e)
    | Ok stats ->
      let cost =
        span ~op "sim.host_invoke" (fun () ->
            let words_in, words_out = Plaid_sim.Host.kernel_words m.dfg in
            Plaid_sim.Host.invoke m ~words_in ~words_out)
      in
      if Plaid_sim.Host.total cost <= 0 then Error "host invocation priced at no cycles"
      else Ok (m.Plaid_mapping.Mapping.ii, stats))

(* One pass replays every stored mapfile once, in the run's order, on fresh
   scratchpad data. *)
let pass env ~traced:_ ~index =
  let n = Array.length env.order in
  let results =
    Array.to_list env.order
    |> List.mapi (fun i s ->
           let op = (index * n) + i in
           let r, us, host = timed (fun () -> span ~op "replay.op" (fun () -> replay env ~op s)) in
           (s, (us, host), r))
  in
  let ok = List.filter_map (function s, _, Ok (ii, st) -> Some (s, ii, st) | _ -> None) results in
  {
    ops_us = List.map (fun (_, (us, _), _) -> us) results;
    host_us = List.map (fun (_, (_, host), _) -> host) results;
    failures =
      List.filter_map
        (fun ((s : Serve.stored), _, r) ->
          match r with
          | Error e -> Some (s.skey.line ^ ": " ^ e)
          | Ok (ii, st) when ii <> s.ii || st.Plaid_sim.Cycle_sim.cycles <> s.cycles ->
            Some (s.skey.line ^ ": II or cycles differ from set-up's check")
          | Ok _ -> None)
        results;
    cycles = List.fold_left (fun acc (_, _, st) -> acc + st.Plaid_sim.Cycle_sim.cycles) 0 ok;
    firings = List.fold_left (fun acc (_, _, st) -> acc + st.Plaid_sim.Cycle_sim.fu_firings) 0 ok;
    signature =
      List.sort compare
        (List.map (fun ((s : Serve.stored), ii, st) -> (s.skey.line, ii, st.Plaid_sim.Cycle_sim.cycles)) ok);
  }

let run cfg =
  let env, setups_s = timed_setups ~n:3 (setup ~seed:cfg.seed ~dir:cfg.dir) ignore in
  let passes = loop cfg ~arm:(arm ~metrics_always:false) (pass env) in
  {
    setups_s;
    passes;
    sim_cycles = (match passes with (_, p) :: _ -> p.cycles | [] -> 0);
    setup_failures = env.pop.failures;
    slots = Array.to_list (Array.map (fun (s : Serve.stored) -> s.skey.line) env.order);
    facts =
      [ ("mapfiles", Json.Num (float_of_int (List.length env.pop.stored)));
        ("pool_width", Json.Num 0.0) ];
    layers = [];
  }
