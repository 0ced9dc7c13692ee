(** Shared experiment context: architectures built once, mappings cached so
    every figure reuses the same compilation results.

    All mappers run with their full-strength parameters and fixed seeds, so
    an experiment run is deterministic end to end.  [outer] models the
    outer-loop trip count multiplying each kernel's inner loop: reported
    cycle counts are [II * (outer * trip - 1) + makespan] (pipeline fill
    amortized over a realistic invocation, as in the paper's
    "II x total loop iterations" accounting). *)

type t

val create :
  ?seed:int ->
  ?outer:int ->
  ?pool:Plaid_util.Pool.t ->
  ?cache:Plaid_serve.Cache.t ->
  unit ->
  t
(** [?pool] is forwarded to the baseline mapper portfolio ([Driver.best_of])
    and the generic-mapper II search; mapping results are identical for any
    pool size (see {!Plaid_mapping.Driver}).

    [?cache] attaches a persistent mapping cache: every per-kernel mapping
    is keyed by its semantic fingerprint ({!Plaid_serve.Fingerprint}) and
    served from the cache when warm.  Experiment reports are byte-identical
    with the cache cold, warm, or absent — mappings travel through the
    exact mapfile blob round-trip in all cached cases, and the determinism
    gate enforces the equality. *)

val outer : t -> int

val pool : t -> Plaid_util.Pool.t option

val prewarm : t -> unit
(** Build every fabric the context holds.  Call once before sharing [t]
    across pool tasks: fabrics are built lazily, concurrent [Lazy.force]
    raises in OCaml 5, and the memo tables are mutex-protected but the
    lazies are not. *)

(** {1 Architectures} *)

val fabric : t -> string -> Plaid_core.Fabrics.built
(** The fabric registered under this short name ({!Plaid_core.Fabrics.names}),
    built once per context.
    @raise Invalid_argument on a name outside the registry. *)

val pcu : t -> string -> Plaid_core.Pcu.t
(** The PCU descriptor of a Plaid-family fabric.
    @raise Invalid_argument on a mesh or an unknown name. *)

(** {1 Mapping results (cached)} *)

val map : t -> string -> Plaid_workloads.Suite.entry -> Plaid_mapping.Mapping.t option
(** The kernel mapped on the named fabric by its default mapper
    ({!Plaid_core.Fabrics.map}): Algorithm 2 on Plaid fabrics, the better
    of PathFinder and SA on the baselines, as the paper selects. *)

val map_plaid_generic :
  t ->
  [ `Sa | `Pf ] ->
  Plaid_workloads.Suite.entry ->
  Plaid_mapping.Mapping.t option
(** Generic mappers driving the Plaid fabric (Figure 18). *)

val spatial : t -> Plaid_workloads.Suite.entry -> (Plaid_spatial.Spatial.result, string) result

(** {1 Metrics} *)

val cycles : t -> Plaid_mapping.Mapping.t -> int
(** Outer-scaled execution cycles. *)

val spatial_cycles : t -> Plaid_spatial.Spatial.result -> int

val energy : t -> Plaid_mapping.Mapping.t -> float
(** Outer-scaled fabric energy (pJ). *)

val spatial_energy : t -> Plaid_spatial.Spatial.result -> float

val perf_per_area : t -> Plaid_mapping.Mapping.t -> float

val spatial_perf_per_area : t -> Plaid_spatial.Spatial.result -> float
