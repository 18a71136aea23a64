(* The per-layer metric table. Every workload prints every name; a layer
   a workload bypasses reads 0 there. Ratios are printed with their base
   in the report lines. *)

open Common

let catalogue =
  [
    ("proto.encode_ns", "ns");
    ("proto.decode_ns", "ns");
    ("proto.bytes_per_req", "bytes");
    ("client.send_us", "us");
    ("client.wait_us", "us");
    ("gen.late_p99_us", "us");
    ("gen.late_max_us", "us");
    ("net.self_us", "us");
    ("net.frames_per_flush", "ratio");
    ("net.flushes", "count");
    ("net.flushes_per_req", "ratio");
    ("net.frame_errors", "count");
    ("sharded.hop_us", "us");
    ("sharded.mailbox_hwm", "count");
    ("sharded.foreign", "count");
    ("session.invoke_us", "us");
    ("session.get_field_us", "us");
    ("session.snapshot_us", "us");
    ("session.pnew_us", "us");
    ("session.set_field_us", "us");
    ("session.commit_us", "us");
    ("session.checkpoint_us", "us");
    ("session.post_us", "us");
    ("rt.posts", "count");
    ("rt.skip_ratio", "ratio");
    ("rt.moves_per_post", "ratio");
    ("rt.masks_per_post", "ratio");
    ("rt.cache_hit_ratio", "ratio");
    ("rt.flushes_per_txn", "ratio");
    ("rt.dense_ratio", "ratio");
    ("rt.fires_per_post", "ratio");
    ("rt.snapshot_reads", "count");
    ("rt.write_conflicts", "count");
    ("locks.per_txn", "ratio");
    ("locks.blocks", "count");
    ("locks.deadlocks", "count");
    ("txn.abort_frac", "ratio");
    ("pool.hit_ratio", "ratio");
    ("pool.evictions_per_txn", "ratio");
    ("store.page_reads_per_txn", "ratio");
    ("store.page_writes_per_txn", "ratio");
    ("bloom.negatives", "count");
    ("mvcc.versions_per_commit", "ratio");
    ("mvcc.max_chain_len", "count");
    ("mvcc.snapshot_reads", "count");
    ("wal.flushes_per_commit", "ratio");
    ("wal.bytes_per_commit", "bytes");
    ("wal.avg_batch", "ratio");
    ("wal.footprint_mb", "MB");
    ("wal.segments_retired", "count");
    ("ckpt.fulls", "count");
    ("ckpt.deltas", "count");
    ("recovery.wal_mb", "MB");
    ("recovery.objects", "count");
    ("trace.layer_sum_us", "us");
    ("trace.e2e_us", "us");
    ("trace.sum_over_e2e", "ratio");
    ("trace.traced_over_untraced", "ratio");
  ]

type t = { values : (string, float) Hashtbl.t; bases : (string, string) Hashtbl.t }

let create () = { values = Hashtbl.create 64; bases = Hashtbl.create 64 }

let set ?base t k v =
  if not (List.mem_assoc k catalogue) then invalid_arg ("unknown layer metric " ^ k);
  Hashtbl.replace t.values k v;
  Option.iter (fun b -> Hashtbl.replace t.bases k b) base

let seti ?base t k v = set ?base t k (float_of_int v)
let value t k = Option.value ~default:0. (Hashtbl.find_opt t.values k)

(* [ratio] with its base recorded for the report. *)
let setr t k num den ~base = set t k (ratio num den) ~base:(Printf.sprintf "%s=%d" base den)

(* Layer numbers from a counter delta over the measured interval
   ([d], keys as {!Ode.Session.counters}); [after] supplies gauges. *)
let of_counters t ~d ~after =
  let g = get d and s = stores d in
  let committed = g "txn.committed" and begun = g "txn.begun" and posts = g "rt.posts" in
  seti t "rt.posts" posts;
  (* Every candidate activation of a post is either skipped by the filter
     or stepped. *)
  setr t "rt.skip_ratio" (g "rt.index_skips")
    (g "rt.index_skips" + g "rt.fsm_moves")
    ~base:"rt.candidates";
  setr t "rt.moves_per_post" (g "rt.fsm_moves") posts ~base:"rt.posts";
  setr t "rt.masks_per_post" (g "rt.mask_evals") posts ~base:"rt.posts";
  setr t "rt.cache_hit_ratio" (g "rt.cache_hits")
    (g "rt.cache_hits" + g "rt.cache_misses")
    ~base:"rt.cache_lookups";
  setr t "rt.flushes_per_txn" (g "rt.cache_flushes") committed ~base:"txn.committed";
  setr t "rt.dense_ratio" (g "rt.dense_dispatches") (g "rt.fsm_moves") ~base:"rt.fsm_moves";
  let fires =
    List.fold_left (fun a k -> a + g ("rt.fires_" ^ k)) 0
      [ "immediate"; "end"; "dependent"; "independent"; "phoenix" ]
  in
  setr t "rt.fires_per_post" fires posts ~base:"rt.posts";
  seti t "rt.snapshot_reads" (g "rt.snapshot_reads");
  seti t "rt.write_conflicts" (g "rt.write_conflicts");
  setr t "locks.per_txn" (g "locks.s_granted" + g "locks.x_granted") begun ~base:"txn.begun";
  seti t "locks.blocks" (g "locks.blocks");
  seti t "locks.deadlocks" (g "locks.deadlocks");
  setr t "txn.abort_frac" (g "txn.aborted") begun ~base:"txn.begun";
  setr t "pool.hit_ratio" (s "pool_hits") (s "pool_hits" + s "pool_misses") ~base:"pool.lookups";
  setr t "pool.evictions_per_txn" (s "pool_evictions") committed ~base:"txn.committed";
  setr t "store.page_reads_per_txn" (s "page_reads") committed ~base:"txn.committed";
  setr t "store.page_writes_per_txn" (s "page_writes") committed ~base:"txn.committed";
  seti t "bloom.negatives" (s "bloom_negatives");
  setr t "mvcc.versions_per_commit" (s "mvcc.versions_installed") committed ~base:"txn.committed";
  seti t "mvcc.max_chain_len"
    (max (get after "objects.mvcc.max_chain_len") (get after "triggers.mvcc.max_chain_len"));
  seti t "mvcc.snapshot_reads" (s "mvcc.snapshot_reads");
  setr t "wal.flushes_per_commit" (s "wal_flushes") committed ~base:"txn.committed";
  setr t "wal.bytes_per_commit" (s "wal_bytes") committed ~base:"txn.committed";
  setr t "wal.avg_batch" (s "flushed_commits") (s "batch_flushes") ~base:"wal.batch_flushes";
  set t "wal.footprint_mb" (float_of_int (stores after "wal_footprint") /. 1e6);
  seti t "wal.segments_retired" (s "segments_retired");
  seti t "ckpt.fulls" (s "ckpt_fulls");
  seti t "ckpt.deltas" (s "ckpt_deltas")

(* Mean span time per call, in microseconds, for each session call. *)
let of_spans t summary ~map =
  List.iter
    (fun (span, metric) ->
      match List.assoc_opt span summary with
      | Some (n, dur, _) when n > 0 ->
          set t metric (float_of_int dur /. float_of_int n /. 1e3) ~base:(Printf.sprintf "calls=%d" n)
      | _ -> ())
    map

(* The traced run's check: the layers' self times per op summed, against
   the untraced end-to-end time per op; and the tracing overhead. *)
let sum_check t ~layer_sum_us ~e2e_us ~traced_ops ~untraced_ops =
  set t "trace.layer_sum_us" layer_sum_us;
  set t "trace.e2e_us" e2e_us;
  set t "trace.sum_over_e2e" (layer_sum_us /. e2e_us) ~base:(Printf.sprintf "e2e_us=%.3f" e2e_us);
  set t "trace.traced_over_untraced" (traced_ops /. untraced_ops)
    ~base:(Printf.sprintf "untraced_ops_per_s=%.1f" untraced_ops);
  line "trace: layer self-time sum %.3f us/op vs untraced end-to-end %.3f us/op (%+.1f%%)"
    layer_sum_us e2e_us
    (100. *. ((layer_sum_us /. e2e_us) -. 1.));
  line "trace: tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s (%.3fx)" traced_ops
    untraced_ops (traced_ops /. untraced_ops)

let report t =
  List.iter
    (fun (k, u) ->
      match Hashtbl.find_opt t.bases k with
      | Some b -> line "layer %-28s %14.4f %-6s (base %s)" k (value t k) u b
      | None -> line "layer %-28s %14.4f %s" k (value t k) u)
    catalogue

let metrics t = List.map (fun (k, u) -> m k (value t k) u) catalogue
