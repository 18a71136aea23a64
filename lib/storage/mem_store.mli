(** Dali-like main-memory record store.

    Records live in a hash table; there is no pager or buffer pool, so the
    read path is a single probe — the point of MM-Ode. Everything above the
    record table is the {!Logical_store} the disk store also runs on: the
    same WAL format, per-transaction undo, strict 2PL record locking, MVCC
    and checkpoint chain, so the two backends are interchangeable behind
    {!Store.t} (experiment T7 measures the difference). *)

type t = Logical_store.t

val create :
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Commit_pipeline.mode ->
  ?rid_base:int ->
  ?rid_stride:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_ckpt_bytes:int ->
  mgr:Txn.mgr ->
  name:string ->
  unit ->
  t
(** [flush_spin] simulates log-force latency and [flush_sleep] its
    blocking variant (see {!Wal.create}); [durability] selects the commit
    pipeline's mode ({!Commit_pipeline.mode}, default [Immediate]).
    [rid_base]/[rid_stride] (defaults 0/1) restrict freshly minted rids to
    the residue class [rid_base (mod rid_stride)] — how {!Ode_parallel}
    gives shard [i] of [K] ownership of every oid ≡ i (mod K) without
    coordination. Raises [Store_error] unless
    [0 <= rid_base < rid_stride]. [wal_segment_bytes], [ckpt_full_every]
    and [auto_ckpt_bytes] are the capacity knobs, as in
    {!Disk_store.create} (no bloom: the record table is its own O(1)
    membership probe). There is no [faults] argument: the store's lock
    points and WAL consult a private inert plane. *)

val ops : t -> Store.t
