let via_alias x = x + 1

let via_open () = ()

let own_only = 1

let nowhere = own_only + 1

let tests_only x = x > 0

let shadowed = 0

module Sub = struct
  let sub_read = 2

  let sub_unused = 3
end
