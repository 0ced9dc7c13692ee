(** Memo tables shared by pool tasks.

    The value is computed outside the lock: memoized values are
    deterministic functions of their key, so a computation duplicated under
    contention is wasted work but never a wrong (or torn) value, and the
    first value stored wins. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** An empty table with the given initial size. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The stored value for the key, else [f ()], stored. *)

val length : ('k, 'v) t -> int
(** The number of stored keys. *)
