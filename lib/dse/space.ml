type family = Mesh | Plaid

type candidate = {
  family : family;
  rows : int;
  cols : int;
  config_entries : int;
  regs_per_pe : int;
  mem_cols : int;
  bypass : bool;
  pruned : bool;
  spm_kb : int;
}

let normalize c =
  match c.family with
  | Mesh -> c
  | Plaid -> { c with regs_per_pe = 0; mem_cols = 0; pruned = false }

let name c =
  let c = normalize c in
  match c.family with
  | Mesh ->
    Printf.sprintf "mesh%dx%d_c%d_r%d_m%d%s%s_spm%d" c.rows c.cols
      c.config_entries c.regs_per_pe c.mem_cols
      (if c.pruned then "_pruned" else "")
      (if c.bypass then "" else "_nobyp")
      c.spm_kb
  | Plaid ->
    Printf.sprintf "plaid%dx%d_c%d%s_spm%d" c.rows c.cols c.config_entries
      (if c.bypass then "" else "_nobyp")
      c.spm_kb

let validate c =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.rows < 2 || c.rows > 8 || c.cols < 2 || c.cols > 8 then
    err "fabric dimensions %dx%d out of range (2..8)" c.rows c.cols
  else if c.config_entries < 1 || c.config_entries > 64 then
    err "config_entries %d out of range (1..64)" c.config_entries
  else if c.family = Mesh && (c.regs_per_pe < 0 || c.regs_per_pe > 32) then
    err "regs_per_pe %d out of range (0..32)" c.regs_per_pe
  else if c.family = Mesh && (c.mem_cols < 1 || c.mem_cols > c.cols) then
    err "mem_cols %d out of range (1..cols)" c.mem_cols
  else if c.spm_kb < 1 || c.spm_kb > 256 then
    err "spm_kb %d out of range (1..256)" c.spm_kb
  else Ok ()

let build c =
  let c = normalize c in
  let nm = name c in
  match c.family with
  | Mesh ->
    let params =
      { Plaid_arch.Mesh.rows = c.rows; cols = c.cols;
        regs_per_pe = c.regs_per_pe; config_entries = c.config_entries;
        clock_gated = false; mem_cols = c.mem_cols; mem_stripes = false;
        bypass = c.bypass;
        pruned_ops = (if c.pruned then Some Plaid_core.Specialize.ml_ops else None) }
    in
    { Plaid_core.Fabrics.arch = Plaid_arch.Mesh.build params ~name:nm; pcu = None }
  | Plaid ->
    let pcu =
      Plaid_core.Pcu.build ~bypass:c.bypass ~rows:c.rows ~cols:c.cols ~name:nm ()
    in
    let arch = pcu.Plaid_core.Pcu.arch in
    let arch =
      if arch.Plaid_arch.Arch.config.entries = c.config_entries then arch
      else
        Plaid_arch.Arch.set_config arch
          { arch.Plaid_arch.Arch.config with entries = c.config_entries }
    in
    { Plaid_core.Fabrics.arch; pcu = Some { pcu with Plaid_core.Pcu.arch } }

type t = {
  space_name : string;
  candidates : candidate list;
}

(* Normalize, validate, drop duplicates (first occurrence wins), keep order. *)
let make space_name cands =
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> Ok { space_name; candidates = List.rev acc }
    | c :: rest -> (
      let c = normalize c in
      match validate c with
      | Error e -> Error (Printf.sprintf "candidate %s: %s" (name c) e)
      | Ok () ->
        let n = name c in
        if Hashtbl.mem seen n then go acc rest
        else (
          Hashtbl.add seen n ();
          go (c :: acc) rest))
  in
  go [] cands

let mesh ?(rows = 4) ?(cols = 4) ?(entries = 16) ?(regs = 4) ?(mem = 1)
    ?(bypass = true) ?(pruned = false) ?(spm = 16) () =
  { family = Mesh; rows; cols; config_entries = entries; regs_per_pe = regs;
    mem_cols = mem; bypass; pruned; spm_kb = spm }

let plaid ?(rows = 2) ?(cols = 2) ?(entries = 16) ?(bypass = true) ?(spm = 16) () =
  { family = Plaid; rows; cols; config_entries = entries; regs_per_pe = 0;
    mem_cols = 0; bypass; pruned = false; spm_kb = spm }

let force = function Ok t -> t | Error e -> invalid_arg e

let tiny =
  force
    (make "tiny"
       [ mesh (); mesh ~entries:8 ~regs:2 (); plaid (); plaid ~bypass:false () ])

let paper =
  force
    (make "paper"
       [ mesh ();                              (* the paper's 4x4 baseline *)
         mesh ~rows:6 ~cols:6 ();              (* the 6x6 baseline *)
         mesh ~pruned:true ();                 (* st_ml (REVAMP-style pruning) *)
         mesh ~entries:32 ~regs:8 ();          (* overprovisioned *)
         mesh ~entries:8 ~regs:2 ();           (* underprovisioned *)
         mesh ~mem:2 ();                       (* extra scratchpad columns *)
         plaid ();                             (* the Plaid 2x2 PCU fabric *)
         plaid ~rows:3 ~cols:3 ();             (* scaled Plaid *)
         plaid ~bypass:false () ])             (* bypass ablation *)

let mesh_sweep =
  force
    (make "mesh-sweep"
       (List.concat_map
          (fun entries ->
            List.map (fun regs -> mesh ~entries ~regs ()) [ 2; 4; 8 ])
          [ 8; 16; 32 ]))

let plaid_sweep =
  force
    (make "plaid-sweep"
       (List.concat_map
          (fun (rows, cols) ->
            List.concat_map
              (fun bypass ->
                List.map (fun entries -> plaid ~rows ~cols ~entries ~bypass ())
                  [ 8; 16 ])
              [ true; false ])
          [ (2, 2); (3, 3) ]))

let presets =
  [ ("tiny", tiny); ("paper", paper); ("mesh-sweep", mesh_sweep);
    ("plaid-sweep", plaid_sweep) ]

let preset_names = List.map fst presets

let find_preset n = List.assoc_opt n presets

(* {1 User-defined spaces} *)

let axis_names =
  [ "family"; "rows"; "cols"; "config_entries"; "regs_per_pe"; "mem_cols";
    "bypass"; "pruned"; "spm_kb" ]

let max_candidates = 512

let of_string ~name:space_name text =
  let err line fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt
  in
  let lines = String.split_on_char '\n' text in
  let parse_axis line key values =
    let ints () =
      try Ok (List.map int_of_string values)
      with _ -> err line "axis %s: integer values expected" key
    in
    let bools () =
      try
        Ok
          (List.map
             (function
               | "true" -> true
               | "false" -> false
               | v -> failwith v)
             values)
      with Failure v -> err line "axis %s: true/false expected, got %S" key v
    in
    match key with
    | "family" -> (
      try
        Ok
          (`Family
             (List.map
                (function
                  | "mesh" -> Mesh
                  | "plaid" -> Plaid
                  | v -> failwith v)
                values))
      with Failure v -> err line "axis family: mesh/plaid expected, got %S" v)
    | "rows" -> Result.map (fun v -> `Rows v) (ints ())
    | "cols" -> Result.map (fun v -> `Cols v) (ints ())
    | "config_entries" -> Result.map (fun v -> `Entries v) (ints ())
    | "regs_per_pe" -> Result.map (fun v -> `Regs v) (ints ())
    | "mem_cols" -> Result.map (fun v -> `Mem v) (ints ())
    | "bypass" -> Result.map (fun v -> `Bypass v) (bools ())
    | "pruned" -> Result.map (fun v -> `Pruned v) (bools ())
    | "spm_kb" -> Result.map (fun v -> `Spm v) (ints ())
    | _ ->
      err line "unknown axis %S (expected one of: %s)" key
        (String.concat ", " axis_names)
  in
  let rec parse_lines lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
      let text =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      match
        String.split_on_char ' ' text
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      with
      | [] -> parse_lines (lineno + 1) acc rest
      | [ key ] -> err lineno "axis %s: no values given" key
      | key :: values -> (
        match parse_axis lineno key values with
        | Error e -> Error e
        | Ok axis -> parse_lines (lineno + 1) ((lineno, axis) :: acc) rest))
  in
  match parse_lines 1 [] lines with
  | Error e -> Error e
  | Ok axes ->
    let dup =
      let tag = function
        | `Family _ -> "family" | `Rows _ -> "rows" | `Cols _ -> "cols"
        | `Entries _ -> "config_entries" | `Regs _ -> "regs_per_pe"
        | `Mem _ -> "mem_cols" | `Bypass _ -> "bypass" | `Pruned _ -> "pruned"
        | `Spm _ -> "spm_kb"
      in
      let seen = Hashtbl.create 8 in
      List.find_opt
        (fun (_, a) ->
          let t = tag a in
          if Hashtbl.mem seen t then true else (Hashtbl.add seen t (); false))
        axes
    in
    (match dup with
     | Some (line, _) -> err line "duplicate axis"
     | None ->
       let pick f dflt =
         match List.find_map (fun (_, a) -> f a) axes with
         | Some vs -> vs
         | None -> dflt
       in
       let families = pick (function `Family v -> Some v | _ -> None) [ Mesh ] in
       let rows = pick (function `Rows v -> Some v | _ -> None) [ 4 ] in
       let cols = pick (function `Cols v -> Some v | _ -> None) [ 4 ] in
       let entries = pick (function `Entries v -> Some v | _ -> None) [ 16 ] in
       let regs = pick (function `Regs v -> Some v | _ -> None) [ 4 ] in
       let mems = pick (function `Mem v -> Some v | _ -> None) [ 1 ] in
       let bypasses = pick (function `Bypass v -> Some v | _ -> None) [ true ] in
       let pruneds = pick (function `Pruned v -> Some v | _ -> None) [ false ] in
       let spms = pick (function `Spm v -> Some v | _ -> None) [ 16 ] in
       let product =
         List.concat_map
           (fun family ->
             List.concat_map
               (fun rows ->
                 List.concat_map
                   (fun cols ->
                     List.concat_map
                       (fun config_entries ->
                         List.concat_map
                           (fun regs_per_pe ->
                             List.concat_map
                               (fun mem_cols ->
                                 List.concat_map
                                   (fun bypass ->
                                     List.concat_map
                                       (fun pruned ->
                                         List.map
                                           (fun spm_kb ->
                                             { family; rows; cols;
                                               config_entries; regs_per_pe;
                                               mem_cols; bypass; pruned;
                                               spm_kb })
                                           spms)
                                       pruneds)
                                   bypasses)
                               mems)
                           regs)
                       entries)
                   cols)
               rows)
           families
       in
       if List.length product > max_candidates then
         Error
           (Printf.sprintf "space %s enumerates %d candidates (max %d)"
              space_name (List.length product) max_candidates)
       else if product = [] then
         Error (Printf.sprintf "space %s is empty" space_name)
       else make space_name product)

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    let base = Filename.remove_extension (Filename.basename path) in
    of_string ~name:base text
  | exception Sys_error e -> Error e
