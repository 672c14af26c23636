(* Workload [serve]: the daemon in-process (Server.start with a witness
   store), driven over loopback by a closed loop of [nproc] client
   domains with one connection each.  It is a closed loop because the
   daemon's callers — the query CLI, the retrying Client and cluster
   coordinators — each wait for their reply.

   The working set is seed-varied witness, check and valency queries at
   n = 2-3 (the request seed is cache-key material, so seed variants are
   distinct entries).  It is written to the store before timing, and the
   daemon's cache holds fewer entries than the working set, so repeat
   traffic splits between memory hits ("cached") and store reads
   ("recovered").  About one request in a hundred is first-seen and
   drawn from the n = 2 ops: it runs the engine and makes an fsynced
   store append.  Every response must be ok and carry exactly the
   fault-free reference bytes of its query, whatever its provenance. *)

open Common
module Json = Ts_analysis.Json
module Request = Ts_service.Request
module Server = Ts_service.Server
module Dispatch = Ts_service.Dispatch
module Frame = Ts_service.Frame
module Store = Ts_store.Store

let working_set = 2000
let cache_capacity = 1400
let fresh_one_in = 100
let clients = Domain.recommended_domain_count ()

(* Per-layer metrics this workload owns. *)
let layers =
  [
    ("serve.latency_p90_ms", "ms");
    ("serve.latency_p99_ms", "ms");
    ("serve.cached_p50_ms", "ms");
    ("serve.recovered_p50_ms", "ms");
    ("serve.fresh_p50_ms", "ms");
    ("service.decode_us", "us");
    ("dispatch.route_hit_us", "us");
    ("server.direct_ratio", "ratio");
    ("server.refused", "count");
    ("server.job_errors", "count");
    ("service.queue.peak", "count");
    ("service.request_self_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("store.open_ms", "ms");
    ("store.append_us", "us");
    ("store.find_us", "us");
    ("store.appends", "count");
    ("store.bytes", "bytes");
    ("store.recovered", "count");
  ]

(* Distinct computations; the working set is seed variants of these. *)
let templates =
  let base = Request.defaults in
  [|
    { base with Request.op = Request.Witness; protocol = "racing"; n = 2 };
    { base with Request.op = Request.Witness; protocol = "racing"; n = 3 };
    { base with Request.op = Request.Witness; protocol = "racing-rand"; n = 2 };
    { base with Request.op = Request.Check; protocol = "racing"; n = 2;
                max_configs = 2_000 };
    { base with Request.op = Request.Check; protocol = "racing"; n = 3;
                max_configs = 300 };
    { base with Request.op = Request.Valency; protocol = "racing"; n = 2 };
    { base with Request.op = Request.Valency; protocol = "racing"; n = 3 };
  |]

(* First-seen requests come from the n = 2 templates only. *)
let fresh_templates =
  List.filter (fun i -> templates.(i).Request.n = 2)
    (List.init (Array.length templates) Fun.id)
  |> Array.of_list

type query = {
  req : Request.t;
  payload : string;  (* the request document, serialized *)
  suffix : string;  (* what every correct response ends with *)
  key : Ts_model.Ckey.t;
  body : string;
}

let result_suffix body = ",\"result\":" ^ body ^ "}"

(* Reference result bodies, one per template, from a fault-free
   dispatcher with no store. *)
let reference_bodies () =
  let d = Dispatch.create () in
  Array.map
    (fun req ->
      match Json.of_string (Dispatch.handle_raw d req) with
      | Ok doc -> (
        match (Json.member "ok" doc, Json.member "result" doc) with
        | Some (Json.Bool true), Some r -> Json.to_string r
        | _ -> failwith ("serve set-up: reference failed: " ^ Json.to_string doc))
      | Error e -> failwith ("serve set-up: " ^ e))
    templates

let query_of bodies ~template ~seed ~id =
  let req = { templates.(template) with Request.seed; id } in
  let body = bodies.(template) in
  { req; payload = Json.to_string (Request.to_json req);
    suffix = result_suffix body; key = Dispatch.cache_key req; body }

(* The seeded working set: template and seed variant of each entry. *)
let make_working_set bodies seed =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let seen = Hashtbl.create working_set in
  Array.init working_set (fun id ->
      let rec pick () =
        let template = Random.State.int rng (Array.length templates) in
        let s = Random.State.int rng 1_000_000 in
        if Hashtbl.mem seen (template, s) then pick ()
        else begin
          Hashtbl.replace seen (template, s) ();
          query_of bodies ~template ~seed:s ~id
        end
      in
      pick ())

let seed_store path queries =
  (try Sys.remove path with Sys_error _ -> ());
  match Store.open_ ~fsync:Store.Never path with
  | Error e -> failwith ("serve set-up: " ^ e)
  | Ok st ->
    Array.iter (fun q -> ignore (Store.append st ~key:q.key ~value:q.body)) queries;
    Store.close st

(* {1 The client side} *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let exchange fd payload =
  Frame.write fd payload;
  match Frame.read fd with
  | Ok reply -> reply
  | Error e -> "frame error: " ^ Frame.error_to_string e

let ping port =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let reply = exchange fd "{\"id\":0,\"op\":\"ping\"}" in
  if not (String.starts_with ~prefix:"{\"id\":0,\"ok\":true" reply) then
    failwith ("serve set-up: ping failed: " ^ reply)

type provenance = Cached | Recovered | Fresh | Bad

let provenance_names = [| "cached"; "recovered"; "fresh"; "bad" |]
let prov_index = function Cached -> 0 | Recovered -> 1 | Fresh -> 2 | Bad -> 3

(* Checks one response and classifies its provenance. *)
let classify q reply =
  let prefix = "\"ok\":true,\"provenance\":\"" in
  match String.index_opt reply ',' with
  | Some i
    when String.ends_with ~suffix:q.suffix reply
         && String.length reply > i + 1 + String.length prefix
         && String.sub reply (i + 1) (String.length prefix) = prefix -> (
    let p = i + 1 + String.length prefix in
    match reply.[p] with
    | 'c' -> Cached
    | 'r' -> Recovered
    | 'f' -> Fresh
    | _ -> Bad)
  | _ -> Bad

type client_result = {
  all : samples;
  by_prov : samples array;
  mutable sent : int;
  mutable bad : int;
}

let fresh_seq = Atomic.make 0

(* One client's closed loop on [fd] until [until]. *)
let client fd rng ~queries ~fresh ~until =
  let r = { all = samples (); by_prov = Array.init 4 (fun _ -> samples ());
            sent = 0; bad = 0 } in
  while now () < until do
    let q =
      if Random.State.int rng fresh_one_in = 0 then
        fresh (Atomic.fetch_and_add fresh_seq 1)
      else queries.(Random.State.int rng (Array.length queries))
    in
    let t0 = now () in
    let reply = exchange fd q.payload in
    let dt = now () -. t0 in
    r.sent <- r.sent + 1;
    push r.all dt;
    let p = classify q reply in
    push r.by_prov.(prov_index p) dt;
    if p = Bad then begin
      r.bad <- r.bad + 1;
      Printf.eprintf "serve: bad response: %s\n%!"
        (String.sub reply 0 (min 200 (String.length reply)))
    end
  done;
  r

type phase = {
  ops : int;
  failures : int;
  elapsed : float;
  latencies : samples;
  wall_elapsed : float;  (* unscaled *)
  by_prov : samples array;
  before : Server.summary;
  after : Server.summary;
}

(* The client domains run in slices of [slice] seconds; between slices
   they wait while the speed is probed, and each slice's latencies are
   scaled by its own factor.  [until = 0.] stops them. *)
let slice = 0.25

type slices = {
  m : Mutex.t;
  c : Condition.t;
  mutable gen : int;
  mutable until : float;
  mutable results : client_result list;
}

let run_phase ~server ~queries ~fresh ~seconds seed =
  let port = Server.port server in
  let ctl =
    { m = Mutex.create (); c = Condition.create (); gen = 0; until = 0.;
      results = [] }
  in
  let locked f =
    Mutex.lock ctl.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock ctl.m) f
  in
  let post until =
    locked (fun () ->
        ctl.gen <- ctl.gen + 1;
        ctl.until <- until;
        ctl.results <- [];
        Condition.broadcast ctl.c)
  in
  let worker c () =
    let fd = connect port in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let rng = Random.State.make [| seed; c |] in
    let rec loop seen =
      let gen, until =
        locked (fun () ->
            while ctl.gen = seen do
              Condition.wait ctl.c ctl.m
            done;
            (ctl.gen, ctl.until))
      in
      if until > 0. then begin
        let r =
          try client fd rng ~queries ~fresh ~until
          with e ->
            Printf.eprintf "serve: client: %s\n%!" (Printexc.to_string e);
            { all = samples (); by_prov = Array.init 4 (fun _ -> samples ());
              sent = 1; bad = 1 }
        in
        locked (fun () ->
            ctl.results <- r :: ctl.results;
            Condition.broadcast ctl.c);
        loop gen
      end
    in
    loop 0
  in
  let domains = List.init clients (fun c -> Domain.spawn (worker c)) in
  Fun.protect ~finally:(fun () -> post 0.; List.iter Domain.join domains)
  @@ fun () ->
  let before = Server.summary server in
  let t_end = now () +. seconds in
  let ops = ref 0 and failures = ref 0 and elapsed = ref 0. in
  let latencies = samples () and by_prov = Array.init 4 (fun _ -> samples ()) in
  let wall_elapsed = ref 0. in
  probe_now ~width:clients ();
  while now () < t_end do
    let t0 = now () in
    post (Float.min t_end (t0 +. slice));
    let results =
      locked (fun () ->
          while List.length ctl.results < clients do
            Condition.wait ctl.c ctl.m
          done;
          ctl.results)
    in
    let t1 = now () in
    probe_now ~width:clients ();
    let s = scaled t0 t1 in
    let f = s /. (t1 -. t0) in
    let scale_into dst src =
      for k = 0 to src.len - 1 do
        push dst (src.data.(k) *. f)
      done
    in
    elapsed := !elapsed +. s;
    wall_elapsed := !wall_elapsed +. (t1 -. t0);
    List.iter
      (fun r ->
        ops := !ops + r.sent;
        failures := !failures + r.bad;
        scale_into latencies r.all;
        Array.iteri (fun i b -> scale_into by_prov.(i) b) r.by_prov)
      results
  done;
  { ops = !ops; failures = !failures; elapsed = !elapsed; latencies;
    wall_elapsed = !wall_elapsed; by_prov; before;
    after = Server.summary server }

let e2e_of ph setup_s =
  [
    wall
      (metric "throughput_ops_s" "1/s"
         (throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed)
         ~note:(Printf.sprintf "verified requests/s over %d connections" clients))
      (throughput ~ops:ph.ops ~failed:ph.failures ph.wall_elapsed);
    latency "latency_p50_ms" (contents ph.latencies) 50.;
    metric "setup_s" "s" setup_s
      ~note:"median of 5: daemon restart on the seeded store until first ping";
  ]

(* Mean scaled time of [f] over [k] calls, in microseconds. *)
let mean_us k f =
  probe_now ();
  let t0 = now () in
  for i = 1 to k do
    f i
  done;
  let t1 = now () in
  probe_now ();
  scaled t0 t1 *. 1e6 /. float k

(* Frame.parse + Json.of_string + Request.of_json on the workload's own
   request bytes. *)
let decode_us queries =
  let frames =
    Array.map
      (fun q ->
        Bytes.of_string (Printf.sprintf "%d\n%s" (String.length q.payload) q.payload))
      queries
  in
  mean_us (4 * Array.length frames) (fun i ->
      let buf = frames.(i mod Array.length frames) in
      match Frame.parse buf ~pos:0 ~len:(Bytes.length buf) with
      | `Frame (off, len) -> (
        match Json.of_string (Bytes.sub_string buf off len) with
        | Ok doc -> ignore (Request.of_json doc)
        | Error e -> failwith ("serve: decode: " ^ e))
      | `Need_more | `Error _ -> failwith "serve: decode: bad frame")

(* Dispatch.route on a key the daemon holds in memory. *)
let route_hit_us server q =
  let fd = connect (Server.port server) in
  ignore (exchange fd q.payload);
  Unix.close fd;
  let d = Server.dispatcher server in
  mean_us 20_000 (fun _ ->
      match Dispatch.route d q.req with
      | Dispatch.Answered _ -> ()
      | Dispatch.Deferred _ -> failwith "serve: route: cached key deferred")

(* Direct store calls on the workload's records in a scratch log, under
   the daemon's fsync policy. *)
let store_us path queries =
  (try Sys.remove path with Sys_error _ -> ());
  match Store.open_ ~fsync:Server.default_config.Server.store_fsync path with
  | Error e -> failwith ("serve: scratch store: " ^ e)
  | Ok st ->
    Fun.protect ~finally:(fun () -> Store.close st; Sys.remove path) @@ fun () ->
    let recs = Array.sub queries 0 200 in
    let append =
      mean_us (Array.length recs) (fun i ->
          let q = recs.(i - 1) in
          ignore (Store.append st ~key:q.key ~value:q.body))
    in
    let find =
      mean_us (10 * Array.length recs) (fun i ->
          let q = recs.(i mod Array.length recs) in
          if Store.find st q.key <> Some q.body then failwith "serve: store find")
    in
    (append, find)

let store_open_ms path =
  let _, t =
    repeat 5 (fun () ->
        match Store.open_ path with
        | Ok st -> Store.close st
        | Error e -> failwith ("serve: store open: " ^ e))
  in
  t *. 1000.

let layer_of ~plain ~traced:(ph, events, snap) ~open_ms ~decode ~route
    ~store_us:(append_us, find_us) =
  let b = ph.before and a = ph.after in
  let d f = f a - f b in
  let cache f = d (fun s -> f s.Server.cache) in
  let store f (s : Server.summary) = Option.fold ~none:0 ~some:f s.Server.store in
  let appends = d (store (fun s -> s.Store.appends)) in
  let bytes = store (fun s -> s.Store.bytes) a in
  let recovered = store (fun s -> s.Store.recovered) a in
  let requests = self_times (spans_of events) in
  let request_ms =
    match Hashtbl.find_opt requests "service.request" with
    | Some st -> st.self *. 1000. /. float (max 1 st.count)
    | None -> 0.
  in
  let hits = cache (fun c -> c.Ts_core.Cache.hits)
  and misses = cache (fun c -> c.Ts_core.Cache.misses) in
  [
    latency "serve.latency_p90_ms" (contents plain.latencies) 90.;
    latency "serve.latency_p99_ms" (contents plain.latencies) 99.;
    latency "serve.cached_p50_ms" (contents plain.by_prov.(prov_index Cached)) 50.;
    latency "serve.recovered_p50_ms" (contents plain.by_prov.(prov_index Recovered)) 50.;
    latency "serve.fresh_p50_ms" (contents plain.by_prov.(prov_index Fresh)) 50.;
    metric "service.decode_us" "us" decode;
    metric "dispatch.route_hit_us" "us" route;
    metric "server.direct_ratio" "ratio"
      (ratio (d (fun s -> s.Server.direct)) (d (fun s -> s.Server.requests)));
    metric "server.refused" "count" (float (d (fun s -> s.Server.refused)));
    metric "server.job_errors" "count" (float (d (fun s -> s.Server.job_errors)));
    metric "service.queue.peak" "count" (float (gauge snap "service.queue.peak"));
    metric "service.request_self_ms" "ms" request_ms;
    metric "cache.hit_ratio" "ratio" (ratio hits (hits + misses));
    metric "cache.evictions" "count" (float (cache (fun c -> c.Ts_core.Cache.evictions)));
    metric "store.open_ms" "ms" open_ms;
    metric "store.append_us" "us" append_us;
    metric "store.find_us" "us" find_us;
    metric "store.appends" "count" (float appends);
    metric "store.bytes" "bytes" (float bytes);
    metric "store.recovered" "count" (float recovered);
  ]

let run ~seed ~seconds ~trace ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "serve-%d.log" (Unix.getpid ())) in
  let bodies = reference_bodies () in
  let queries = make_working_set bodies seed in
  seed_store path queries;
  let open_ms = store_open_ms path in
  let fresh k =
    let template = fresh_templates.(k mod Array.length fresh_templates) in
    query_of bodies ~template ~seed:(1_000_000 + k) ~id:(working_set + k)
  in
  let config =
    { Server.default_config with
      Server.port = 0; store_path = Some path; workers = clients; cache_capacity }
  in
  let current = ref None in
  let stop_current () = Option.iter Server.stop !current; current := None in
  Fun.protect ~finally:(fun () ->
      stop_current ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let server, setup_s =
    repeat 5 ~before:stop_current (fun () ->
        let s = Server.start config in
        current := Some s;
        ping (Server.port s);
        s)
  in
  (* fill the cache before timing: every working-set query once *)
  let fd = connect (Server.port server) in
  Array.iter (fun q -> ignore (exchange fd q.payload)) queries;
  Unix.close fd;
  let show ph =
    Array.iteri
      (fun i l ->
        if l.len > 0 then
          Printf.printf "  %-10s %d requests, p50 %.4f ms\n" provenance_names.(i)
            l.len (latency "" (contents l) 50.).value)
      ph.by_prov
  in
  if not trace then begin
    let ph = run_phase ~server ~queries ~fresh ~seconds seed in
    show ph;
    { attempted = ph.ops; failed = ph.failures; e2e = e2e_of ph setup_s;
      layer = []; exact = [] }
  end
  else begin
    let half = seconds /. 2. in
    let plain = run_phase ~server ~queries ~fresh ~seconds:half seed in
    show plain;
    let ((ph, _, _) as tr) =
      traced (fun () -> run_phase ~server ~queries ~fresh ~seconds:half seed)
    in
    let layer =
      layer_of ~plain ~traced:tr ~open_ms ~decode:(decode_us queries)
        ~route:(route_hit_us server queries.(0))
        ~store_us:(store_us (path ^ ".scratch") queries)
    in
    let overhead =
      tracing_overhead
        ~plain:(throughput ~ops:plain.ops ~failed:plain.failures plain.elapsed)
        ~traced:(throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed)
    in
    { attempted = plain.ops + ph.ops; failed = plain.failures + ph.failures;
      e2e = []; layer = layer @ [ overhead ]; exact = [] }
  end
