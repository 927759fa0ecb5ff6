(** Poll-driven endpoints over Unix-domain sockets.

    Every socket the dist runtime opens goes through this layer: the
    coordinator's listener and the worker's dial-back. It owns
    accept/connect setup, {!Wire} framing over a connected fd, and
    activity clocks for heartbeat deadlines. An address is a socket
    path. *)

val now : unit -> float
(** Monotonic seconds ({!Bcclb_obs.Mclock}) — the clock every deadline
    in the dist runtime is measured on. *)

(** {2 Listeners} *)

type listener

val listen_local : unit -> listener
(** A fresh endpoint at a unique socket path under [$TMPDIR]
    ([bcclb-dist-<pid>-<n>.sock]). @raise Failure if the kernel
    refuses. *)

val listener_fd : listener -> Unix.file_descr

val listener_path : listener -> string
(** The socket path workers dial. *)

val close_listener : listener -> unit
(** Close the fd and unlink the socket path. Idempotent. *)

(** {2 Connections} *)

module Conn : sig
  type t

  val dial : ?tries:int -> ?retry_delay:float -> string -> (t, string) result
  (** Connect to the socket at this path, retrying refused/absent
      endpoints [tries] times [retry_delay] seconds apart (covers the
      race between a process listening and its peer dialing). A fresh
      socket per attempt — a failed connect poisons its fd. *)

  val fd : t -> Unix.file_descr
  val is_closed : t -> bool
  val close : t -> unit

  val idle_for : now:float -> t -> float
  (** Heartbeat-deadline support: seconds since the last byte arrived
      (or the connection was made). *)

  val send : t -> string -> unit
  (** One {!Wire} frame out, blocking. Raises [Unix.Unix_error] as
      [Wire.write_frame] does; callers that must survive a dead peer
      wrap it. *)

  val recv : t -> (string, Wire.error) result
  (** One frame in, blocking — the worker side. *)

  val pump :
    ?on_bytes:(int -> unit) ->
    t ->
    buf:Bytes.t ->
    on_frame:(string -> unit) ->
    [ `Ok | `Eof | `Closed | `Error of string ]
  (** Nonblocking drain — the coordinator side. Reads what the kernel
      has into [buf], feeds the incremental reader, calls [on_frame]
      per complete frame ([on_frame] may {!close} the conn; pumping
      stops there). [`Eof] on orderly close, [`Error] on a framing or
      I/O error (sticky — the conn should be destroyed). *)
end

val accept_all : listener -> on_conn:(Conn.t -> unit) -> unit
(** Drain every pending connection (the listener fd must be in
    nonblocking mode); stops on [EAGAIN]. *)
