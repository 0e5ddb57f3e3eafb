(** Restartable one-shot and periodic timers on top of {!Engine}.

    TCP retransmission timeouts, delayed-ACK timers and controller epochs
    all need a timer that can be re-armed or stopped; this wraps the raw
    cancellable events of {!Engine} with that lifecycle. *)

type t
(** A timer bound to one engine and one callback. *)

val create : Engine.t -> f:(unit -> unit) -> t
(** [create engine ~f] is an idle timer that will run [f] when it
    expires. *)

val arm : t -> delay:Time.t -> unit
(** [arm t ~delay] (re)starts the timer: any pending expiry is cancelled
    and [f] will fire once after [delay].

    The timer keeps one event record for life and moves it
    ({!Engine.rearm}), so a warm re-arm allocates nothing, at any
    delay. The timer owns its record; nothing else may re-arm or keep
    it. *)

val stop : t -> unit
(** Cancel any pending expiry. Idempotent. *)

val is_armed : t -> bool
(** [true] iff an expiry is pending. *)

val every : Engine.t -> period:Time.t -> ?start:Time.t -> (unit -> unit) -> t
(** [every engine ~period f] fires [f] repeatedly, first at [?start]
    (default: one period from now), then every [period], until {!stop}.

    @raise Invalid_argument if [period <= 0]. *)
