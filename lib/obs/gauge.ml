type t = { help : string; value : float Atomic.t }

let make ?(help = "") () = { help; value = Atomic.make 0.0 }
let set t v = Atomic.set t.value v

let value t = Atomic.get t.value
let help t = t.help
