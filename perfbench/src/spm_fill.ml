(* Scratchpad contents for a loaded mapfile, filled the way `plaidc run`
   fills them, from the benchmark's own random stream. *)

let random rng (m : Plaid_mapping.Mapping.t) =
  let spm = Plaid_sim.Spm.create () in
  List.iter
    (fun (name, extent) ->
      Plaid_sim.Spm.ensure spm name extent;
      for i = 0 to extent - 1 do
        Plaid_sim.Spm.write spm name i (Plaid_util.Rng.int rng 256 - 128)
      done)
    (Plaid_ir.Dfg.arrays m.dfg);
  spm
