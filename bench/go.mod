module nfvmcast/bench

go 1.22

require nfvmcast v0.0.0

replace nfvmcast => ../
