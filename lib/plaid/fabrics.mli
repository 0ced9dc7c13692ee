(** Construct fabrics: from ADL specs (the layer that can see both the mesh
    builders and the PCU builder), and from the one table of named fabrics
    the CLI, the serve protocol, the experiments and the mapfile loader
    share.  It also decides how each fabric is mapped by default: Plaid
    fabrics with Algorithm 2 ({!Hier_mapper}), meshes with the better of
    PathFinder and SA ({!Plaid_mapping.Driver.best_of}), as the paper's
    evaluation does (Section 6.3). *)

type built = {
  arch : Plaid_arch.Arch.t;
  pcu : Pcu.t option;  (** present for Plaid-family fabrics *)
}

val of_spec : Plaid_arch.Adl.spec -> name:string -> built

val of_file : string -> (built, string) result
(** Read, parse and build; the architecture name is the file basename.
    An unreadable or invalid file is an [Error] naming the file. *)

(** {1 Named fabrics} *)

type named = {
  short : string;  (** the [plaidc -a] / serve [arch=] spelling, e.g. ["st"] *)
  full : string;  (** the architecture name, recorded in mapfiles, e.g. ["st_4x4"] *)
  build : unit -> built;  (** a fresh fabric on every call *)
}

val registry : named list
(** [st], [st6], [stml], [plaid], [plaid3], [plaidml], in this order. *)

val names : string list
(** The short names, in registry order. *)

val build : string -> built option
(** Build by short name. *)

val resolve : string -> Plaid_arch.Arch.t option
(** Build by full name: the [~resolve] argument of
    {!Plaid_mapping.Mapfile.load} for mapfiles made on a named fabric. *)

(** {1 Default mappers} *)

val map :
  ?pool:Plaid_util.Pool.t ->
  ?quick:bool ->
  seed:int ->
  built ->
  Plaid_ir.Dfg.t ->
  Plaid_mapping.Mapping.t option
(** {!Hier_mapper.map} when [pcu] is present, else
    {!Plaid_mapping.Driver.best_of} over PathFinder and SA ([pool] feeds
    the portfolio only; the result does not depend on it).  [quick]
    (default false) selects the reduced-effort parameter sets. *)

val mapper_id : ?quick:bool -> built -> string
(** The id of what {!map} runs, for cache keys: ["hier:default"],
    ["hier:quick"], ["best_of:pf+sa:default"] or ["best_of:pf+sa:quick"]. *)

val driver_mapper_id : [ `Pf | `Sa ] -> string
(** The id of one generic mapper run alone through
    {!Plaid_mapping.Driver.map} with default parameters:
    ["driver:pf:default"] or ["driver:sa:default"]. *)
