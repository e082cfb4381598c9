(** The span and metric taxonomy of the MSMR architecture.

    One vocabulary shared by the simulator and the live runtime, so a
    Chrome trace of a simulated run and of a live run read the same:

    - {b modules} are the paper's module boundaries (DESIGN.md §1 /
      Figure 3): ClientIO, ReplicaIO, ReplicationCore, ServiceManager —
      used as the [cat] (category) of every span;
    - {b thread names} are the names the runtime and the simulator
      already give their threads ([ClientIO-0], [Batcher], [Protocol],
      [ReplicaIOSnd-1], [Replica], ...), used as trace track names;
    - {b states} are the paper's four profiling states
      (busy/blocked/waiting/other), used as span names on the
      [thread-state] tracks.

    See docs/OBSERVABILITY.md for the full naming scheme. *)

val module_of_thread : string -> string
(** [module_of_thread name] maps a thread name to its module boundary:

    - ["ClientIO-0"], ["r1/ClientIO-2"], ["ClientAcceptor"], ["conn-3"]
      → ["ClientIO"]
    - ["ReplicaIOSnd-1"], ["ReplicaIORcv-0"] → ["ReplicaIO"]
    - ["Batcher"], ["Batcher-2"], ["Protocol"], ["Protocol-g3"],
      ["FailureDetector"], ["StableStorage"] → ["ReplicationCore"]
    - ["Replica"], ["Replica-g2"], ["Executor-1"]
      → ["ServiceManager"]
    - anything else → ["Other"]

    Multi-group thread names carry a [-g<gid>] suffix; prefix matching
    maps them to the same module as their single-group counterpart.

    A [<replica-id>/] prefix (as produced by the live runtime's thread
    naming, e.g. ["r0/Protocol"]) is stripped before matching. *)

val modules : string list
(** The module boundaries of the architecture, in pipeline order:
    [["ClientIO"; "ReplicationCore"; "ReplicaIO"; "ServiceManager";
    "Other"]]. *)
