type key = {
  k_backend : string;
  k_arch : string;
  k_name : string;
  k_graph : Digest.t;  (* of the canonical DSL text, not the text itself *)
  k_devices : int;  (* device count the plan is placed/costed for *)
  k_class : string;  (* shape-class id ("-" = exact/unclassed) *)
}

(* Written only by the domain holding the key's claim in [pending]. *)
type entry = {
  plan : Gpu.Plan.t;
  verified : bool;  (* a first functional run of this plan completed *)
}

type t = {
  table : (key, entry) Hashtbl.t;
  pending : (key, unit) Hashtbl.t;  (* keys claimed for a compile and/or a first run *)
  lock : Mutex.t;
  filled : Condition.t;  (* signalled whenever a claim is released *)
  mutable hits : int;
  mutable misses : int;
  store : Store.Plan_store.t option;
}

type 'a found = {
  plan : Gpu.Plan.t;
  hit : bool;
  compile_s : float;
  first : 'a option;
}

let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_size = Obs.Metrics.gauge "cache.size"
let m_class_hits = Obs.Metrics.counter "shape_class.hits"

(* A classed lookup that still compiled: its bucket had no plan yet. The
   fallback is compile-and-insert under the classed key — never an error —
   so after one warm pass per class this counter must stay flat. *)
let m_guard_misses = Obs.Metrics.counter "shape_class.guard_misses"

(* Counted when the lookup is decided, so a compile or first run that
   raises afterwards is still counted. *)
let count ~cls ~hit =
  Obs.Metrics.incr (if hit then m_hits else m_misses);
  if Option.is_some cls then Obs.Metrics.incr (if hit then m_class_hits else m_guard_misses)

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

let create ?store () =
  let t =
    { table = Hashtbl.create 64; pending = Hashtbl.create 8; lock = Mutex.create ();
      filled = Condition.create (); hits = 0; misses = 0; store }
  in
  (* Zero-compile cold start: every plan the store holds becomes resident,
     and persisted [verified] stamps license the warm fast path from the
     very first hit after a restart. *)
  Option.iter
    (fun s ->
      List.iter
        (fun (sk, verified, plan) ->
          Option.iter
            (fun key -> Hashtbl.replace t.table key { plan; verified })
            (key_of_store sk))
        (Store.Plan_store.entries s);
      Obs.Metrics.set m_size (float_of_int (Hashtbl.length t.table)))
    store;
  t

let graph_digest g = Digest.string (Ir.Parse.to_dsl g)

let key_of ?(devices = 1) ?cls (backend : Backends.Policy.t) arch ~name ~digest =
  if devices < 1 then invalid_arg "Plan_cache: devices < 1";
  {
    k_backend = backend.be_name;
    k_arch = arch.Gpu.Arch.name;
    k_name = name;
    k_graph = digest;
    k_devices = devices;
    (* A classed key digests the *canonical* graph (the class
       representative); the class id keeps it disjoint from the exact key
       of a request that happens to arrive at the representative shape. *)
    k_class = (match cls with None -> "-" | Some c -> Shape_class.id c);
  }

let lookup t ?devices ?cls ?first_run (backend : Backends.Policy.t) arch ~name ~digest graph =
  let key = key_of ?devices ?cls backend arch ~name ~digest in
  (* Single flight: the first domain that needs work done on a key (a
     compile, a first run, or both) claims it in [pending] and does that
     work outside the lock; domains racing on the key wait on [filled] and
     then find the claimer's entry. A verified entry, or any resident
     entry when the caller has no first run, is served at once: the table
     is checked before [pending]. *)
  let rec decide () =
    match Hashtbl.find_opt t.table key with
    | Some e when e.verified || Option.is_none first_run ->
        t.hits <- t.hits + 1;
        `Hit e.plan
    | resident ->
        if Hashtbl.mem t.pending key then begin
          Condition.wait t.filled t.lock;
          decide ()
        end
        else begin
          Hashtbl.replace t.pending key ();
          (match resident with
          | Some _ -> t.hits <- t.hits + 1
          | None -> t.misses <- t.misses + 1);
          `Claim (Option.map (fun (e : entry) -> e.plan) resident)
        end
  in
  Mutex.lock t.lock;
  let decision = decide () in
  Mutex.unlock t.lock;
  match decision with
  | `Hit plan ->
      count ~cls ~hit:true;
      { plan; hit = true; compile_s = 0.0; first = None }
  | `Claim resident ->
      count ~cls ~hit:(Option.is_some resident);
      (* Every exit releases the claim, so a waiter retries the key (a
         failed compile, a raising first run) rather than block on it. *)
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              Hashtbl.remove t.pending key;
              Obs.Metrics.set m_size (float_of_int (Hashtbl.length t.table));
              Condition.broadcast t.filled))
      @@ fun () ->
      let plan, compile_s =
        match resident with
        | Some plan -> (plan, 0.0)
        | None ->
            let t0 = Unix.gettimeofday () in
            let plan =
              Obs.Trace.with_span
                ~attrs:[ ("name", name); ("backend", backend.be_name) ]
                "cache_compile"
                (fun () -> backend.compile arch ~name graph)
            in
            (plan, Unix.gettimeofday () -. t0)
      in
      (* Insert, then persist under the claim: one writer per key, so the
         store never ends up behind the table. *)
      let settle verified =
        locked t (fun () -> Hashtbl.replace t.table key { plan; verified });
        Option.iter (fun s -> Store.Plan_store.put s (store_key key) ~verified plan) t.store
      in
      let first =
        match first_run with
        | None ->
            settle false;
            None
        | Some f -> (
            match f plan with
            | r ->
                settle true;
                Some r
            | exception e ->
                (* Resident and unstamped, as a plan that never ran: the
                   next lookup with a first run claims it again. *)
                if Option.is_none resident then settle false;
                raise e)
      in
      { plan; hit = Option.is_some resident; compile_s; first }

let compile t ?devices ?cls backend arch ~name graph =
  (lookup t ?devices ?cls backend arch ~name ~digest:(graph_digest graph) graph).plan

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let length t = locked t (fun () -> Hashtbl.length t.table)
