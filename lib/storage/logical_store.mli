(** The logical record store, written once over two physical backends.

    The paper runs one Ode object manager over two storage managers, EOS
    on disk and Dali in main memory; they differ only in where a record's
    bytes live. This module is everything above that line, shared by
    {!Disk_store} and {!Mem_store}: fresh-rid minting (with the
    {!Ode_parallel} shard striding), strict 2PL record locking behind the
    [Lock_acquire] fault point, the logical WAL and per-transaction undo,
    snapshot and read-committed reads against the {!Mvcc} version chains,
    version install at commit, the dirty-rid set and the full/delta
    checkpoint chain, pruning, the shared counters, recovery's bulk load
    and anchor, and crash. A backend supplies only a {!physical} record
    set. *)

type physical = {
  get : Rid.t -> bytes option;
  put : Rid.t -> bytes -> unit;
      (** Store a record: insert a new rid or replace an existing one. *)
  remove : Rid.t -> unit;
  mem : Rid.t -> bool;
      (** Membership with no data read (Disk: the directory, no page). *)
  iter : (Rid.t -> unit) -> unit;  (** Every live rid, in any order. *)
  count : unit -> int;
  reserve : int -> unit;
      (** Size for a bulk load of that many records, before {!load_bulk}'s
          puts. *)
  flush : unit -> unit;
      (** Write back dirty physical state; runs before every checkpoint
          and recovery anchor. *)
  after_anchor : Rid.t list -> unit;
      (** Runs after each full anchor {!checkpoint}, given the rids
          committed since the previous checkpoint (Disk refreshes its
          bloom filter). *)
  crash : unit -> unit;  (** Drop the volatile contents. *)
  counters : unit -> (string * int) list;  (** Backend-only counters. *)
  filter : (Rid.t -> bool) option;
      (** Optional presence filter with no false negatives: [false] means
          the rid was never stored. A regular read it rules out returns
          [None] with no lock and no [get]; its outcomes are counted as
          [bloom_negatives] and [bloom_fp]. *)
}

type t

val create :
  ?flush_spin:int ->
  ?flush_sleep:int ->
  ?durability:Commit_pipeline.mode ->
  ?faults:Faults.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  ?wal_segment_bytes:int ->
  ?ckpt_full_every:int ->
  ?auto_ckpt_bytes:int ->
  mgr:Txn.mgr ->
  name:string ->
  physical ->
  t
(** An empty store over a physical record set, registered as a
    commit/abort participant with [mgr]. The options are those of
    {!Disk_store.create}; [faults] (default: a fresh inert plane) is
    consulted at every record-lock acquisition and by the store's WAL.
    Raises [Store_error] unless [0 <= rid_base < rid_stride] and
    [ckpt_full_every >= 1]. *)

val ops : t -> Store.t

val load_bulk : t -> (Rid.t * bytes) list -> unit
(** Physically install records, bypassing transactions, locking and
    logging, each with a baseline version at timestamp 0. Recovery-only;
    raises [Store_error] if the store is not empty. *)

val anchor_from : t -> (Rid.t * bytes) list -> unit
(** Write a full anchor checkpoint whose payload is the entries verbatim
    (sorted by rid). Recovery pairs this with {!load_bulk}: the entries
    are the state just loaded, so logging them directly skips the
    per-record re-read a regular full checkpoint performs. Raises
    [Store_error] if the store's WAL is not empty. *)

val crash : t -> unit
(** Simulate a crash: the physical contents and version chains are lost
    and the store refuses further use. The WAL's durable prefix survives;
    retrieve it with [(ops t).wal]. *)
