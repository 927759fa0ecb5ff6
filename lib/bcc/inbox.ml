(* The engine's shared-exchange inbox, re-exported so algorithms that
   open Bcclb_bcc read their ports as [Inbox.get inbox p]. *)
include Bcclb_engine.Inbox
