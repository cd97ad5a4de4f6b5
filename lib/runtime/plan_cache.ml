type key = {
  k_backend : string;
  k_arch : string;
  k_name : string;
  k_graph : Digest.t;  (* of the canonical DSL text, not the text itself *)
  k_devices : int;  (* device count the plan is placed/costed for *)
  k_class : string;  (* shape-class id ("-" = exact/unclassed) *)
}

type entry = {
  e_plan : Gpu.Plan.t;
  mutable e_last_use : int;
  mutable e_verified : bool;  (* a functional (or oracle) execution of this plan completed *)
}

type t = {
  table : (key, entry) Hashtbl.t;
  pending : (key, unit) Hashtbl.t;  (* keys whose compile is in flight *)
  (* Keys whose plan content was ever functionally verified. The [verified]
     stamp names the {e content} (the key digests it), not the resident
     record: an entry evicted and recompiled — or marked while its key was
     absent/pending — must come back stamped, not silently lose the work
     the functional interpreter already did. *)
  stamps : (key, unit) Hashtbl.t;
  lock : Mutex.t;
  filled : Condition.t;  (* signalled whenever a pending compile resolves *)
  capacity : int option;
  mutable tick : int;  (* logical clock for LRU ordering *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  store : Store.Plan_store.t option;  (* write-behind persistence *)
}

let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_evictions = Obs.Metrics.counter "cache.evictions"
let m_size = Obs.Metrics.gauge "cache.size"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let store_key key =
  {
    Store.Plan_store.sk_backend = key.k_backend;
    sk_arch = key.k_arch;
    sk_name = key.k_name;
    sk_graph = Digest.to_hex key.k_graph;
    sk_devices = key.k_devices;
    sk_class = key.k_class;
  }

let key_of_store (sk : Store.Plan_store.key) =
  match Digest.from_hex sk.sk_graph with
  | digest ->
      Some
        { k_backend = sk.sk_backend; k_arch = sk.sk_arch; k_name = sk.sk_name;
          k_graph = digest; k_devices = sk.sk_devices; k_class = sk.sk_class }
  | exception Invalid_argument _ -> None

let evict_over_capacity t =
  match t.capacity with
  | None -> ()
  | Some cap ->
      while Hashtbl.length t.table > cap do
        let lru =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, stamp) when stamp <= e.e_last_use -> acc
              | _ -> Some (k, e.e_last_use))
            t.table None
        in
        match lru with
        | Some (k, _) ->
            Hashtbl.remove t.table k;
            t.evictions <- t.evictions + 1;
            Obs.Metrics.incr m_evictions
        | None -> ()
      done

let create ?capacity ?store () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Plan_cache.create: capacity must be >= 1"
  | _ -> ());
  let t =
    { table = Hashtbl.create 64; pending = Hashtbl.create 8; stamps = Hashtbl.create 16;
      lock = Mutex.create (); filled = Condition.create (); capacity; tick = 0;
      hits = 0; misses = 0; evictions = 0; store }
  in
  (* Zero-compile cold start: every plan the store holds becomes resident
     (up to capacity — excess entries are LRU-trimmed but stay on disk),
     and persisted [verified] stamps license the warm fast path from the
     very first hit after a restart. *)
  (match store with
  | None -> ()
  | Some s ->
      locked t (fun () ->
          List.iter
            (fun (sk, verified, plan) ->
              match key_of_store sk with
              | None -> ()
              | Some key ->
                  t.tick <- t.tick + 1;
                  if verified then Hashtbl.replace t.stamps key ();
                  Hashtbl.replace t.table key
                    { e_plan = plan; e_last_use = t.tick; e_verified = verified })
            (Store.Plan_store.entries s);
          evict_over_capacity t;
          Obs.Metrics.set m_size (float_of_int (Hashtbl.length t.table))));
  t

(* Write-behind: persistence never holds the cache lock while touching the
   filesystem. The stamp is re-read under the lock right before the write
   (and re-checked after) so a [mark_verified] racing with the compile's
   insert cannot leave the store permanently unstamped. *)
let write_behind t key plan =
  match t.store with
  | None -> ()
  | Some s ->
      let verified = locked t (fun () -> Hashtbl.mem t.stamps key) in
      Store.Plan_store.put s (store_key key) ~verified plan;
      if (not verified) && locked t (fun () -> Hashtbl.mem t.stamps key) then
        Store.Plan_store.mark_verified s (store_key key)

let key_of ?(devices = 1) ?cls (backend : Backends.Policy.t) arch ~name graph =
  if devices < 1 then invalid_arg "Plan_cache: devices < 1";
  {
    k_backend = backend.be_name;
    k_arch = arch.Gpu.Arch.name;
    k_name = name;
    k_graph = Digest.string (Ir.Parse.to_dsl graph);
    k_devices = devices;
    (* A classed key digests the *canonical* graph (the class
       representative); the class id keeps it disjoint from the exact key
       of a request that happens to arrive at the representative shape. *)
    k_class = (match cls with None -> "-" | Some c -> Shape_class.id c);
  }

let compile_hit_verified t ?devices ?cls (backend : Backends.Policy.t) arch ~name graph =
  (* Hash the canonical DSL outside the lock: it is the expensive part of
     the key, and it needs no cache state. *)
  let key = key_of ?devices ?cls backend arch ~name graph in
  (* Single-flight: the first domain to miss a key claims it in [pending]
     and compiles outside the lock; domains racing on the same key wait on
     [filled] and are served the winner's plan as a hit — the expensive
     compile runs exactly once per resident miss. Distinct keys still
     compile concurrently. *)
  let decide () =
    Mutex.lock t.lock;
    let rec loop () =
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.tick <- t.tick + 1;
          e.e_last_use <- t.tick;
          t.hits <- t.hits + 1;
          let verified = e.e_verified in
          Mutex.unlock t.lock;
          Obs.Metrics.incr m_hits;
          `Hit (e.e_plan, verified)
      | None ->
          if Hashtbl.mem t.pending key then begin
            Condition.wait t.filled t.lock;
            loop ()
          end
          else begin
            Hashtbl.replace t.pending key ();
            t.misses <- t.misses + 1;
            Mutex.unlock t.lock;
            Obs.Metrics.incr m_misses;
            `Compile
          end
    in
    loop ()
  in
  match decide () with
  | `Hit (plan, verified) -> (plan, true, verified)
  | `Compile -> (
      let resolve f =
        locked t (fun () ->
            Hashtbl.remove t.pending key;
            let r = f () in
            Obs.Metrics.set m_size (float_of_int (Hashtbl.length t.table));
            Condition.broadcast t.filled;
            r)
      in
      match
        Obs.Trace.with_span
          ~attrs:[ ("name", name); ("backend", backend.Backends.Policy.be_name) ]
          "cache_compile"
          (fun () -> backend.compile arch ~name graph)
      with
      | exception e ->
          (* Release the claim so a waiter can retry (and fail) itself
             rather than block forever on a key that will never fill. *)
          resolve (fun () -> ());
          raise e
      | plan ->
          let r =
            resolve (fun () ->
                (match Hashtbl.find_opt t.table key with
                | Some e ->
                    t.tick <- t.tick + 1;
                    e.e_last_use <- t.tick
                | None ->
                    t.tick <- t.tick + 1;
                    (* Not unconditionally [false]: a [mark_verified] that
                       landed while this key was evicted or in flight is in
                       [stamps], and the same content digest means the same
                       plan semantics — re-stamp on insert instead of
                       dropping the completed verification. *)
                    Hashtbl.replace t.table key
                      { e_plan = plan; e_last_use = t.tick;
                        e_verified = Hashtbl.mem t.stamps key };
                    evict_over_capacity t);
                (plan, false, Hashtbl.mem t.stamps key))
          in
          write_behind t key plan;
          r)

let compile_hit t ?devices ?cls backend arch ~name graph =
  let plan, hit, _verified = compile_hit_verified t ?devices ?cls backend arch ~name graph in
  (plan, hit)

let compile t ?devices ?cls backend arch ~name graph =
  fst (compile_hit t ?devices ?cls backend arch ~name graph)

let mark_verified t ?devices ?cls backend arch ~name graph =
  let key = key_of ?devices ?cls backend arch ~name graph in
  locked t (fun () ->
      (* Stamp the content, then the resident record if there is one. A
         key that is absent (evicted, or still pending its re-insert) is
         no longer a silent drop: the stamp survives in [stamps] and is
         re-applied on the next insert of the same digest. *)
      Hashtbl.replace t.stamps key ();
      match Hashtbl.find_opt t.table key with
      | Some e -> e.e_verified <- true
      | None -> ());
  match t.store with
  | None -> ()
  | Some s -> Store.Plan_store.mark_verified s (store_key key)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let length t = locked t (fun () -> Hashtbl.length t.table)
