module memfss/benchmark

go 1.22

require memfss v0.0.0

replace memfss => ../
