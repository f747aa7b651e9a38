let bytes_per_sec_of_kbps kbps = kbps *. 1000.0 /. 8.0
let kbps_of_bytes_per_sec bps = bps *. 8.0 /. 1000.0
let ms x = x /. 1000.0
let kib x = x * 1024
