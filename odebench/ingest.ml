(* durable-ingest: write-only transactions into a Disk-store session whose
   working set is many times the buffer pool. Storage, WAL, checkpoints and
   recovery do the work; no trigger is defined. *)

open Common
module S = Ode.Session
module V = Ode_objstore.Value

let accounts = 14_000
let memo = String.make 160 'm'
let note = String.make 24 'n'
let ring = 2_048 (* live entries: each append past this deletes the oldest *)
let updates = 4 (* zipfian account updates per transaction *)
let ckpt_every = 2_000 (* explicit checkpoint after every this many txns *)
let tail_acked = 400 (* end-of-run tail: synced, so acknowledged *)
let tail_unacked = 100 (* then this many never synced before the crash *)
let page_size = 4096
let pool_frames = 64 (* the Session default *)
let segment_bytes = 64 * 1024
let full_every = 4

let define env =
  S.define_class env ~name:"Account"
    ~fields:[ ("v", V.Int 0); ("memo", V.Str "") ]
    ();
  S.define_class env ~name:"Entry"
    ~fields:[ ("seq", V.Int 0); ("acct", V.Int 0); ("note", V.Str "") ]
    ()

let durability () = group_mode ()

type st = {
  env : S.t;
  acct : Ode_objstore.Oid.t array;
  entries : Ode_objstore.Oid.t Queue.t;
  v : int array; (* model: last txn id that wrote each account *)
  mutable next : int; (* next txn id *)
}

let setup () =
  let env =
    S.create ~store:`Disk ~durability:(durability ()) ~wal_segment_bytes:segment_bytes
      ~ckpt_full_every:full_every ()
  in
  define env;
  let acct = Array.make accounts (Ode_objstore.Oid.of_int 0) in
  let batch = 500 in
  for b = 0 to (accounts / batch) - 1 do
    S.with_txn env (fun txn ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          acct.(i) <- S.pnew env txn ~cls:"Account" ~init:[ ("memo", V.Str memo) ] ()
        done)
  done;
  S.sync env;
  S.checkpoint env;
  { env; acct; entries = Queue.create (); v = Array.make accounts 0; next = 1 }

(* One transaction's inputs, drawn from the workload stream. *)
let draw zipf rng = Array.init updates (fun _ -> zipf_draw zipf rng)

(* Spans around each public call, when tracing. *)
type tr = { t : Trace.t; n_set : int; n_new : int; n_del : int; n_commit : int; n_txn : int; n_ckpt : int }

let tracer () =
  let t = Trace.create () in
  let n = Trace.name_id t in
  {
    t;
    n_txn = n "txn";
    n_set = n "session.set_field";
    n_new = n "session.pnew";
    n_del = n "session.pdelete";
    n_commit = n "session.commit";
    n_ckpt = n "session.checkpoint";
  }

let call tr ~name ~parent ~req f =
  match tr with None -> f () | Some tr -> Trace.span tr.t ~name:(name tr) ~parent ~req f

(* Run transaction [st.next] with inputs [accts]; updates the model. *)
let txn ?tr st accts =
  let env = st.env and i = st.next in
  let root = match tr with Some tr -> Trace.open_ tr.t ~name:tr.n_txn ~parent:(-1) ~req:i | None -> -1 in
  let txn = S.begin_txn env in
  Array.iter
    (fun a ->
      call tr ~name:(fun t -> t.n_set) ~parent:root ~req:i (fun () ->
          S.set_field env txn st.acct.(a) "v" (V.Int i)))
    accts;
  let e =
    call tr ~name:(fun t -> t.n_new) ~parent:root ~req:i (fun () ->
        S.pnew env txn ~cls:"Entry"
          ~init:[ ("seq", V.Int i); ("acct", V.Int accts.(0)); ("note", V.Str note) ]
          ())
  in
  Queue.push e st.entries;
  if Queue.length st.entries > ring then begin
    let old = Queue.pop st.entries in
    call tr ~name:(fun t -> t.n_del) ~parent:root ~req:i (fun () -> S.pdelete env txn old)
  end;
  call tr ~name:(fun t -> t.n_commit) ~parent:root ~req:i (fun () -> S.commit env txn);
  Array.iter (fun a -> st.v.(a) <- i) accts;
  if i mod ckpt_every = 0 then
    call tr ~name:(fun t -> t.n_ckpt) ~parent:root ~req:i (fun () -> S.checkpoint env);
  (match tr with Some tr -> Trace.close tr.t root | None -> ());
  st.next <- i + 1

(* Closed loop with one caller: for [seconds], or exactly [txns] when given. *)
let loop ?tr ?txns st zipf rng ~seconds lats =
  let t0 = now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  let continue () = match txns with Some k -> !n < k | None -> now_ns () < stop in
  while continue () do
    let accts = draw zipf rng in
    let a = now_ns () in
    txn ?tr st accts;
    add lats (us_of_ns (now_ns () - a));
    incr n
  done;
  (!n, secs_of_ns (now_ns () - t0))

(* Oracle: recovered state must be the model after some prefix of k txns
   with k between the last acknowledged txn and the last txn run —
   every acked commit present, no later txn half-applied. Returns the
   number of divergent records. *)
let check env st ~acked ~tail =
  let bad = ref 0 in
  let seqs = Hashtbl.create (2 * ring) in
  S.with_txn env (fun txn ->
      S.iter_cluster env txn ~cls:"Entry" (fun o ->
          let seq = V.to_int (S.get_field env txn o "seq") in
          Hashtbl.replace seqs seq (V.to_int (S.get_field env txn o "acct"))));
  let k = Hashtbl.fold (fun s _ a -> max s a) seqs 0 in
  if k < acked || k > acked + Array.length tail then begin
    line "durable-ingest: recovered prefix %d outside [%d, %d]" k acked (acked + Array.length tail);
    incr bad
  end;
  (* Roll the model from the acked point forward to k. *)
  let v = Array.copy st.v in
  Array.iteri (fun j accts -> if acked + 1 + j <= k then Array.iter (fun a -> v.(a) <- acked + 1 + j) accts) tail;
  S.with_txn env (fun txn ->
      Array.iteri
        (fun a o -> if V.to_int (S.get_field env txn o "v") <> v.(a) then incr bad)
        st.acct);
  let expect = min ring k in
  if Hashtbl.length seqs <> expect then incr bad;
  for s = k - expect + 1 to k do
    if not (Hashtbl.mem seqs s) then incr bad
  done;
  !bad

let run ~seed ~seconds ~trace ?txns () =
  let st, first_setup = timed_setup setup in
  let rng = Random.State.make [| seed; 0x1d6e |] in
  let zipf = zipf ~n:accounts ~s:0.99 in
  let layers = Layers.create () in
  (* Warm the pool and the caches, and fill the entry ring, before timing. *)
  ignore (loop st zipf rng ~seconds:0. ~txns:(ring + 1_000) (samples 1));
  (* The image recovered during the run: everything synced, a full
     checkpoint laid, then what a crash at this point would leave. *)
  S.sync st.env;
  checkpoint_full st.env;
  let image = live_image ~kind:`Disk st.env in
  let setup_times = ref [ first_setup ] and recovery_times = ref [] in
  let between i =
    if extra_setup_after i then setup_times := snd (timed_setup setup) :: !setup_times;
    recovery_times := fst (recover_once ~kind:`Disk ~durability:(durability ()) ~define image) :: !recovery_times
  in
  let before = S.counters st.env in
  let sl =
    if trace then begin
      let tr = tracer () in
      let n1, untraced, traced =
        alternate ~seconds ?txns (fun ~traced ~seconds ?txns () ->
            loop ?tr:(if traced then Some tr else None) ?txns st zipf rng ~seconds (samples 1))
      in
      let summary = Trace.summary tr.t in
      Layers.of_spans layers summary
        ~map:
          [
            ("session.set_field", "session.set_field_us");
            ("session.pnew", "session.pnew_us");
            ("session.commit", "session.commit_us");
            ("session.checkpoint", "session.checkpoint_us");
          ];
      let total name = match List.assoc_opt name summary with Some (_, d, _) -> d | None -> 0 in
      let self name = match List.assoc_opt name summary with Some (_, _, s) -> s | None -> 0 in
      (* Layers: the session calls, plus the benchmark's own share of the
         txn span (draws, bookkeeping) as the generator layer. *)
      let session_ns =
        List.fold_left (fun a n -> a + total n) 0
          [ "session.set_field"; "session.pnew"; "session.pdelete"; "session.commit"; "session.checkpoint" ]
      in
      let layer_sum_us = float_of_int (session_ns + self "txn") /. float_of_int (max 1 n1) /. 1e3 in
      Layers.sum_check layers ~layer_sum_us ~e2e_us:(1e6 /. untraced) ~traced_ops:traced
        ~untraced_ops:untraced;
      ensure_out_dir ();
      Trace.write tr.t (Filename.concat out_dir (Printf.sprintf "durable-ingest-seed%d.spans.tsv" seed));
      []
    end
    else sliced ~between ~seconds ?txns ~cap:400_000 (fun ~seconds ?txns lats -> loop ?txns st zipf rng ~seconds lats)
  in
  let after = S.counters st.env in
  let peak = peak_heap_mb () in
  Layers.of_counters layers ~d:(delta ~before ~after) ~after;
  (* The end-of-run image: sync, checkpoint until a full anchor is laid
     (a fixed place in the incremental chain), then a fixed tail — some
     synced, some never acknowledged — and crash. *)
  S.sync st.env;
  checkpoint_full st.env;
  let live = live_heap_mb () in
  for _ = 1 to tail_acked do
    txn st (draw zipf rng)
  done;
  S.sync st.env;
  let acked = st.next - 1 in
  let acked_v = Array.copy st.v in
  let tail = Array.init tail_unacked (fun _ -> draw zipf rng) in
  Array.iter (fun accts -> txn st accts) tail;
  let user_bytes =
    (accounts * (8 + String.length memo)) + (Queue.length st.entries * (16 + String.length note))
  in
  let stored = stored_ratio ~page_size (S.counters st.env) ~user_bytes in
  let pages = stores (S.counters st.env) "pages" in
  let end_image = S.crash st.env in
  let end_r, env' = recover_once ~kind:`Disk ~durability:(durability ()) ~define end_image in
  Layers.set layers "recovery.wal_mb" (image_mb end_image);
  let model = { st with v = acked_v } in
  let bad = check env' model ~acked ~tail in
  Layers.seti layers "recovery.objects" (accounts + List.length (S.cluster env' ~cls:"Entry"));
  let attempted = st.next - 1 in
  line "durable-ingest: %d accounts + %d ring entries over %d pages; pool %d frames (working set %.1fx pool)"
    accounts ring pages pool_frames
    (float_of_int pages /. float_of_int pool_frames);
  line "durable-ingest: oracle: acked prefix %d, %d divergent records" acked bad;
  line "durable-ingest: recovery of the end-of-run image %.4f s (%.2f MB of WAL)" end_r.secs (image_mb end_image);
  if trace then Layers.report layers else slice_report "durable-ingest" sl;
  let o =
    {
      correct = bad = 0;
      attempted;
      failed = bad;
      metrics =
        (if trace then Layers.metrics layers
         else
           end_to_end ~setups:!setup_times ~recoveries:!recovery_times ~sl ~stored ~peak ~live ~failed:bad
             ~attempted ());
    }
  in
  (o, layers)
