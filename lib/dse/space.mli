(** Declarative architecture configuration spaces for design-space
    exploration.

    A space is a finite list of *candidates*; each candidate describes one
    buildable fabric by a handful of provisioning axes:

    - topology family: per-PE-router mesh ([Mesh]) or Plaid PCU ([Plaid]);
    - fabric dimensions (rows x cols — PEs for meshes, PCUs for Plaid);
    - configuration-memory depth (bounds the reachable II);
    - register-file depth per PE (mesh communication provisioning);
    - memory-capable columns (mesh scratchpad access points);
    - inter-ALU bypass wires (the Plaid ablation switch);
    - domain-pruned ALU operation set (the REVAMP-style ST-ML axis);
    - scratchpad capacity (system area and leakage).

    Axes that do not apply to a family are *normalized* to canonical values
    so that a Cartesian product never enumerates the same hardware twice
    under different names.  Candidate names are canonical and stable: they
    key the mapping cache and the per-candidate RNG streams, so a candidate
    evaluates identically whatever space it appears in. *)

type family = Mesh | Plaid

type candidate = {
  family : family;
  rows : int;
  cols : int;
  config_entries : int;
  regs_per_pe : int;   (** mesh only; normalized to 0 for Plaid *)
  mem_cols : int;      (** mesh only; normalized to 0 for Plaid *)
  bypass : bool;       (** straight-through bypass wires (mesh byp_* ports /
                           the Plaid inter-ALU ablation switch) *)
  pruned : bool;       (** mesh only (ML-pruned ALU); false for Plaid *)
  spm_kb : int;
}

val name : candidate -> string
(** Canonical name, e.g. ["mesh4x4_c16_r4_m1_spm16"] or
    ["plaid2x2_c16_spm16"] (["_nobyp"], ["_pruned"] when set). *)

val normalize : candidate -> candidate

val build : candidate -> Plaid_core.Fabrics.built
(** Build the fabric; the architecture's name is {!name}[ candidate]. *)

type t = {
  space_name : string;
  candidates : candidate list;  (** normalized, deduplicated, stable order *)
}

val presets : (string * t) list
(** ["tiny"] (4 candidates, CI-sized), ["paper"] (the baselines of the
    paper plus over/under-provisioned meshes and Plaid ablations),
    ["mesh-sweep"], ["plaid-sweep"]. *)

val preset_names : string list

val find_preset : string -> t option

val of_string : name:string -> string -> (t, string) result
(** Parse a user-defined space: one [axis value value ...] pair per line,
    [#] comments; the space is the Cartesian product of the axis values.
    Axes: [family] (mesh|plaid), [rows], [cols], [config_entries],
    [regs_per_pe], [mem_cols], [bypass] (true|false), [pruned],
    [spm_kb].  Missing axes default to the paper's baseline point.
    Errors carry the offending line number. *)

val of_file : string -> (t, string) result
