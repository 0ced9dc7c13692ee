(** The benchmark's own statistics: order statistics over timing samples
    and per-span self time over a recorded trace. *)

val median : float array -> float
(** Median of a non-empty sample (mean of the two middle values when the
    count is even).  @raise Invalid_argument on an empty sample. *)

val faster_half_mean : float array -> float
(** Mean of the smaller half of a non-empty sample: its [ceil (n / 2)]
    smallest values.  For timings that interference only ever lengthens,
    it drops the slowed half and averages the noise of the rest.
    @raise Invalid_argument on an empty sample. *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile, computed exactly as
    Python's [statistics.quantiles(values, n=4)] (its default "exclusive"
    method) computes the outer two.  A single sample gives that sample
    three times.  @raise Invalid_argument on an empty sample. *)

val spread : float array -> float
(** Quartile spread as a share of the median: [(q3 - q1) / median]; 0 when
    the median is 0. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile [p] in (0, 100] of a non-empty sample. *)

val beyond : n:int -> float -> int
(** Samples strictly above the nearest-rank [p]-th percentile of [n]
    samples: [n - ceil (p * n / 100)]. *)

val supported : n:int -> float list -> float option
(** The highest of the candidate percentiles that has at least 10 samples
    beyond it, or [None] when none has. *)

(** {1 Self time} *)

type span = {
  name : string;
  op : int;  (** the operation the span belongs to; spans of one request share it *)
  tid : int;  (** recording thread; spans nest only within one thread *)
  start : float;
  dur : float;
}

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the part of it that
    its child spans cover.  A child is a span on the same thread that lies
    within the parent's interval; nested children count once, through
    their outermost ancestor below the parent.  Input order is free; the
    output follows start order per thread. *)
