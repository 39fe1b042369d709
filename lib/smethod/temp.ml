include Memory.Make (struct
  let name = "temp"
  let logged = false
end)
