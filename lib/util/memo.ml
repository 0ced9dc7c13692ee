type ('k, 'v) t = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

let create n = { lock = Mutex.create (); tbl = Hashtbl.create n }

let find_or_add t key f =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key) with
  | Some v -> v
  | None ->
    let v = f () in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some w -> w
        | None ->
          Hashtbl.replace t.tbl key v;
          v)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)
