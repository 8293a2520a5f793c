#!/bin/sh
# End-to-end CLI workflow: datagen -> scale -> train -> predict (local and
# distributed). Run by ctest with the build directory as $1.
set -e
BIN="$1/tools"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$BIN/casvm-datagen" --list > "$WORK/list.txt"
grep -q webspam "$WORK/list.txt"

"$BIN/casvm-datagen" --standin toy --scale 0.5 \
  --out "$WORK/train.libsvm" --test-out "$WORK/test.libsvm"
test -s "$WORK/train.libsvm"
test -s "$WORK/test.libsvm"

"$BIN/casvm-scale" --data "$WORK/train.libsvm" --kind standard \
  --out "$WORK/train.scaled" --save-params "$WORK/scaler.txt"
"$BIN/casvm-scale" --data "$WORK/test.libsvm" \
  --out "$WORK/test.scaled" --load-params "$WORK/scaler.txt"

"$BIN/casvm-train" --data "$WORK/train.scaled" --method fcfs-ca \
  --gamma 0.5 --procs 4 --out "$WORK/model.bin" > "$WORK/train.log"
grep -q "model written" "$WORK/train.log"

"$BIN/casvm-predict" --model "$WORK/model.bin" --data "$WORK/test.scaled" \
  --out "$WORK/labels.txt" > "$WORK/predict.log"
grep -q "accuracy" "$WORK/predict.log"
# One label per test sample.
test "$(wc -l < "$WORK/labels.txt")" = "$(wc -l < "$WORK/test.scaled")"

# A crafted model file is rejected with an error, not a crash: one unrouted
# sub-model whose support vectors claim 2 rows of 2^63 columns, a shape
# whose element count wraps to 0.
Z8='\000\000\000\000\000\000\000\000'
{
  printf '\001\000\000\000\000\000\000\000'  # 1 sub-model
  printf "$Z8"                                # not routed
  printf '\152\000\000\000\000\000\000\000'  # it is 106 bytes long
  printf '\002\000\000\000\000\000\000\000'  # Gaussian, 7 padding bytes
  printf '\000\000\000\000\000\000\360\077'  # gamma = 1.0
  printf "$Z8$Z8$Z8$Z8"                       # a, r, degree + padding, bias
  printf '\002\000\000\000\000\000\000\000'  # 2 coefficients
  printf "$Z8$Z8"                             # both 0
  printf "$Z8"                                # dense, 7 padding bytes
  printf '\002\000\000\000\000\000\000\000'  # 2 rows
  printf '\000\000\000\000\000\000\000\200'  # 2^63 columns
  printf "$Z8"                                # 0 nonzeros
  printf '\001\377'                           # labels +1, -1
} > "$WORK/crafted.bin"
test "$(wc -c < "$WORK/crafted.bin")" -eq 130
STATUS=0
"$BIN/casvm-predict" --model "$WORK/crafted.bin" --data "$WORK/test.scaled" \
  > "$WORK/crafted.log" 2>&1 || STATUS=$?
if [ "$STATUS" -ne 1 ]; then
  echo "expected exit 1 from casvm-predict on a crafted model, got $STATUS" >&2
  exit 1
fi
grep -q "casvm-predict: casvm error: dataset unpack" "$WORK/crafted.log"

"$BIN/casvm-predict" --model "$WORK/model.bin" --data "$WORK/test.scaled" \
  --distributed > "$WORK/predict_dist.log"
grep -q "distributed prediction" "$WORK/predict_dist.log"

# Accuracy parity between local and routed prediction.
ACC1=$(grep -o 'accuracy: [0-9.]*' "$WORK/predict.log" | head -1)
ACC2=$(grep -o 'accuracy: [0-9.]*' "$WORK/predict_dist.log" | head -1)
test "$ACC1" = "$ACC2"
# The local path serves through the compiled-batch engine and reports it.
grep -q "throughput" "$WORK/predict.log"
grep -q "latency" "$WORK/predict.log"

# Serving load generator over the same saved model: closed loop, every
# request must get an explicit result code (the tool exits nonzero on any
# lost reply).
"$BIN/casvm-serve" --model "$WORK/model.bin" --data "$WORK/test.scaled" \
  --mode closed --requests 2000 --out "$WORK/serve.json" > "$WORK/serve.log"
grep -q '"bench": "serve"' "$WORK/serve.json"
grep -q '"shed"' "$WORK/serve.json"
grep -q "qps" "$WORK/serve.log"

"$BIN/casvm-model" --mode strong --m 16000 --procs 8,32,128 \
  --standin toy > "$WORK/model_tool.log"
grep -q "ra-ca" "$WORK/model_tool.log"

# Fault injection: a partitioned method degrades around a crashed rank and
# the surviving model still predicts.
"$BIN/casvm-train" --data "$WORK/train.scaled" --method ra-ca \
  --gamma 0.5 --procs 4 --fault-spec "crash:rank=2,phase=train" \
  --fault-seed 7 --out "$WORK/degraded.bin" > "$WORK/degraded.log"
grep -q "degraded run" "$WORK/degraded.log"
grep -q "3 of 4 partitions survived" "$WORK/degraded.log"
grep -q "model written" "$WORK/degraded.log"
"$BIN/casvm-predict" --model "$WORK/degraded.bin" --data "$WORK/test.scaled" \
  > "$WORK/degraded_predict.log"
grep -q "accuracy" "$WORK/degraded_predict.log"

# The same crash sinks a tree method fast, naming the injected fault.
if "$BIN/casvm-train" --data "$WORK/train.scaled" --method cascade \
  --gamma 0.5 --procs 4 --fault-spec "crash:rank=2,phase=train" \
  > "$WORK/failfast.log" 2>&1; then
  echo "expected cascade to fail under an injected crash" >&2
  exit 1
fi
grep -q "injected fault" "$WORK/failfast.log"

# A malformed fault spec is rejected up front.
if "$BIN/casvm-train" --data "$WORK/train.scaled" --method ra-ca \
  --gamma 0.5 --procs 4 --fault-spec "explode:rank=1" \
  > "$WORK/badspec.log" 2>&1; then
  echo "expected a malformed --fault-spec to be rejected" >&2
  exit 1
fi
grep -q "unknown fault kind" "$WORK/badspec.log"

# An aborting traced run still flushes its partial trace before teardown.
if "$BIN/casvm-train" --data "$WORK/train.scaled" --method cascade \
  --gamma 0.5 --procs 4 --fault-spec "crash:rank=2,phase=train" \
  --trace "$WORK/partial_trace.json" > "$WORK/traceabort.log" 2>&1; then
  echo "expected the traced cascade run to fail" >&2
  exit 1
fi
grep -q "partial trace flushed" "$WORK/traceabort.log"
test -s "$WORK/partial_trace.json"

# Checkpoint/resume: a run killed mid-solve restarts from its checkpoint
# directory and still writes a model.
if "$BIN/casvm-train" --data "$WORK/train.scaled" --method cascade \
  --gamma 0.5 --procs 4 --fault-spec "crash:rank=0,phase=solve,nth=2" \
  --checkpoint-dir "$WORK/ckpt" --checkpoint-every 8 \
  > "$WORK/ckpt_crash.log" 2>&1; then
  echo "expected the checkpointed cascade run to crash" >&2
  exit 1
fi
"$BIN/casvm-train" --data "$WORK/train.scaled" --method cascade \
  --gamma 0.5 --procs 4 --checkpoint-dir "$WORK/ckpt" --checkpoint-every 8 \
  --resume --out "$WORK/resumed.bin" > "$WORK/resume.log"
grep -q "resumed:" "$WORK/resume.log"
grep -q "model written" "$WORK/resume.log"

# --resume without --checkpoint-dir is rejected up front.
if "$BIN/casvm-train" --data "$WORK/train.scaled" --method ra-ca \
  --gamma 0.5 --procs 4 --resume > "$WORK/noresume.log" 2>&1; then
  echo "expected --resume without --checkpoint-dir to be rejected" >&2
  exit 1
fi
grep -q -- "--resume needs --checkpoint-dir" "$WORK/noresume.log"

# Rank retry: the crashed rank respawns and full coverage is restored —
# the run is recovered, not degraded.
"$BIN/casvm-train" --data "$WORK/train.scaled" --method ra-ca \
  --gamma 0.5 --procs 4 --fault-spec "crash:rank=2,phase=train" \
  --rank-retries 1 --checkpoint-dir "$WORK/ckpt_retry" \
  --out "$WORK/retried.bin" > "$WORK/retry.log"
grep -q "recovered: rank(s) 2" "$WORK/retry.log"
grep -q "model written" "$WORK/retry.log"
if grep -q "degraded run" "$WORK/retry.log"; then
  echo "a recovered run must not be reported degraded" >&2
  exit 1
fi

echo "tools workflow OK"
