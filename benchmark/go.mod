module tendax/benchmark

go 1.21

require tendax v0.0.0

replace tendax => ../
