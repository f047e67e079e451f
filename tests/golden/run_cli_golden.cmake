# CTest driver for the meraligner_cli golden-file test.
#
# Inputs (passed with -D):
#   CLI     - path to the built meraligner_cli binary
#   DAEMON  - path to the built meralignerd binary (flag checks only)
#   GOLDEN  - checked-in expected SAM (tests/golden/meraligner_cli.sam)
#   WORKDIR - scratch directory for this run
#
# Scenarios:
#   1. single batch, on the default (auto) ISA tier and pinned to the scalar
#      tier (smith_waterman per candidate): both must produce the SAME golden
#      SAM, since the traced sweep aligns each window exactly as the scalar
#      reference does. Removed kernel selectors (--sw) and knobs (--sw-pool)
#      are usage errors, in the CLI and in the daemon
#   2. multi batch:   --reads reads_a --reads reads_b (one index, two batches)
#                     -> the SAME bytes, since per-read results depend
#                     only on the prebuilt index, not on batch boundaries
#   3. bad flags must fail fast with a usage message, not be ignored
#   4. sharded reference: --shards 3 must reproduce the single-index record
#      set exactly (run with --no-exact on both sides: the Lemma-1
#      single-copy shortcut is defined per index, so it is the one knob that
#      legitimately differs between one index and K shards)
#   6. the CLI writes no file next to its inputs: WORKDIR never holds a
#      derived *.fastq.sdb
#   9. even k (--k 20): the same fixtures against meraligner_cli_k20.sam
#  10. emission order: reads_mixed.fastq (read i trimmed to 61 + (i % 5) * 10
#      bases) with --no-exact, default and scalar tiers, against
#      meraligner_cli_mixed.sam
#
# Fixtures are copied into WORKDIR so every run reads and writes scratch
# files only; the source tree stays clean.
cmake_minimum_required(VERSION 3.20)

get_filename_component(FIXTURES ${GOLDEN} DIRECTORY)

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(COPY ${FIXTURES}/contigs.fa ${FIXTURES}/reads.fastq
     ${FIXTURES}/reads_a.fastq ${FIXTURES}/reads_b.fastq
     ${FIXTURES}/reads_mixed.fastq
     DESTINATION ${WORKDIR})

# SAM output is byte-stable (the seed index serves hits in one canonical
# order), so runs compare raw bytes with only the @PG CL field masked: it
# embeds absolute scratch paths (its presence is asserted separately).
# Only sharded-vs-single passes SORTED: shard reconcile orders each read's
# records by its own total order (score, global target id, position), so
# only the record sets can match. Read names contain ';' (CMake's list
# separator), so they are shielded before list(SORT) splits records apart.
function(normalize in_path out_path)
  file(READ ${in_path} content)
  string(REGEX REPLACE "\tCL:[^\n]*" "\tCL:<normalized>" content "${content}")
  if(ARGN)
    string(REPLACE ";" "<SEMI>" content "${content}")
    string(REPLACE "\n" ";" lines "${content}")
    list(SORT lines)
    list(JOIN lines "\n" content)
    string(REPLACE "<SEMI>" ";" content "${content}")
  endif()
  file(WRITE ${out_path} "${content}")
endfunction()

function(check_sam_against produced expected label)
  normalize(${produced} ${produced}.norm ${ARGN})
  normalize(${expected} ${WORKDIR}/expected.norm.sam ${ARGN})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${produced}.norm ${WORKDIR}/expected.norm.sam
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
      "${label}: SAM output differs from ${expected}.\n"
      "  produced: ${produced}\n"
      "If the change is intentional, re-baseline by copying the produced file "
      "over the golden one and replacing the @PG CL:... field with "
      "CL:<normalized> — it embeds run-specific paths "
      "(see tests/golden/gen_fixtures.cpp).")
  endif()
endfunction()

function(check_sam produced label)
  check_sam_against(${produced} ${GOLDEN} "${label}")
endfunction()

# Reads are loaded into memory, never converted on disk: no run may leave a
# derived SeqDB next to a FASTQ input.
function(check_no_derived_seqdb label)
  file(GLOB derived ${WORKDIR}/*.fastq.sdb)
  if(derived)
    message(FATAL_ERROR "${label}: the CLI wrote ${derived} next to its input")
  endif()
endfunction()

# --- 1. single batch, default and scalar tiers ------------------------------
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_default.sam
    --k 31 --ranks 4 --ppn 2 --no-permute
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "meraligner_cli exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
check_sam(${WORKDIR}/out_default.sam "single-batch default tier")

# The scalar tier, the reference every SIMD tier reproduces, must hit the
# same golden bytes (the SIMD tiers are covered above via auto-dispatch;
# scalar is the one tier auto never picks on SIMD-capable CI hosts).
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_batch_scalar.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --sw-isa scalar
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--sw-isa scalar exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
check_sam(${WORKDIR}/out_batch_scalar.sam "single-batch --sw-isa scalar")

# Removed selectors are usage errors (exit 2 + usage), not silent aliases:
# the --sw kernel selector (full, batch, striped, banded), the --sw-pool
# knob, the serial --no-prefetch stream and the --shard-by planner weighting
# no longer exist.
foreach(removed "--sw;full" "--sw;batch" "--sw;striped" "--sw;banded"
                "--sw;batch;--sw-pool;on" "--no-prefetch"
                "--shards;3;--shard-by;bases")
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --k 31 --ranks 4 --ppn 2 ${removed}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  check_no_derived_seqdb("'${removed}'")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${removed}' exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "meraligner --targets")
    message(FATAL_ERROR "'${removed}' did not print the usage message:\n${err}")
  endif()
endforeach()

# --sw-isa help is a first-class query: print the tier table and exit 0,
# before any input validation.
execute_process(
  COMMAND ${CLI} --sw-isa help
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--sw-isa help exited ${rc}, expected 0:\n${err}")
endif()
if(NOT out MATCHES "scalar" OR NOT out MATCHES "sse2")
  message(FATAL_ERROR "--sw-isa help did not print the tier table:\n${out}")
endif()

# The daemon shares the CLI's flags: --sw is an unknown flag there too, and
# is refused before the daemon builds an index or binds its socket.
foreach(sw full batch)
  execute_process(
    COMMAND ${DAEMON}
      --targets ${WORKDIR}/contigs.fa
      --socket ${WORKDIR}/removed_sw.sock
      --k 31 --ranks 4 --ppn 2 --sw ${sw}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "meralignerd --sw ${sw} exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "unknown flag --sw" OR NOT err MATCHES "meralignerd --targets")
    message(FATAL_ERROR "meralignerd --sw ${sw} did not print the usage message:\n${err}")
  endif()
endforeach()

# --sw-isa validation: unknown tier names are usage errors (exit 2 + usage).
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --k 31 --ranks 4 --ppn 2 --sw-isa mmx
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--sw-isa mmx exited ${rc}, expected usage error 2")
endif()
if(NOT err MATCHES "sw-isa" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "--sw-isa mmx did not print the usage message:\n${err}")
endif()

# --max-hits keeps at least one hit per seed: 0 would leave a seed nothing to
# extend, and a negative count would wrap to unlimited.
foreach(bad 0 -1)
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --k 31 --ranks 4 --ppn 2 --max-hits ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--max-hits ${bad} exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "max-hits must be >= 1" OR NOT err MATCHES "meraligner --targets")
    message(FATAL_ERROR "--max-hits ${bad} did not print the usage message:\n${err}")
  endif()
endforeach()

# Integer flags take the whole value or nothing: trailing junk, a fraction
# and an empty value are usage errors naming the flag, not a silent prefix.
foreach(flag_value "k=31x" "max-hits=4.5" "ppn=")
  string(REGEX REPLACE "=.*" "" flag "${flag_value}")
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --k 31 --ranks 4 --ppn 2 --${flag_value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--${flag_value} exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "--${flag} expects an integer" OR NOT err MATCHES "meraligner --targets")
    message(FATAL_ERROR "--${flag_value} did not print the usage message:\n${err}")
  endif()
endforeach()

# The header must carry a spec-complete @PG line: program, version, and the
# command line of the invocation that produced the file.
file(READ ${WORKDIR}/out_default.sam default_sam)
if(NOT default_sam MATCHES "@PG\tID:merAligner\tPN:meraligner\tVN:[^\n\t]+\tCL:[^\n]*--targets")
  message(FATAL_ERROR "single-batch SAM lacks a @PG line with PN/VN/CL")
endif()

# --- 2. multi batch over one reused index -----------------------------------
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads_a.fastq
    --reads ${WORKDIR}/reads_b.fastq
    --out ${WORKDIR}/out_multi.sam
    --k 31 --ranks 4 --ppn 2 --no-permute
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "multi-batch meraligner_cli exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "batch 2/2")
  message(FATAL_ERROR "multi-batch run did not report a second batch:\n${err}")
endif()
check_sam(${WORKDIR}/out_multi.sam "multi-batch")

# --- 3. bad flags fail fast --------------------------------------------------
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --bogus-flag 7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "meraligner_cli accepted an unknown flag (--bogus-flag)")
endif()
if(NOT err MATCHES "unknown flag" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "bad-flag run did not print the usage message:\n${err}")
endif()

# --- 4. sharded reference reproduces the single-index record set -------------
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_single_noexact.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "single-index --no-exact run exited with ${rc}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_sharded.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact --shards 3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded meraligner_cli exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "sharded index built: 3 shards")
  message(FATAL_ERROR "sharded run did not report its shards:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_sharded.sam ${WORKDIR}/out_single_noexact.sam
                  "sharded-vs-single" SORTED)

# --- 5. --shard-parallel: explicit executor width, same bytes ----------------
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_sharded_j2.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact --shards 3
    --shard-parallel 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--shard-parallel 2 run exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "shard executor: 2 of 3 shards in parallel")
  message(FATAL_ERROR "--shard-parallel 2 did not report its executor width:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_sharded_j2.sam ${WORKDIR}/out_sharded.sam
                  "shard-parallel-vs-serial")

# --shard-parallel validation: 0, negative and non-numeric values are usage
# errors (exit 2 + usage), and the flag is rejected outside sharded runs.
foreach(bad 0 -3 abc)
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --k 31 --ranks 4 --ppn 2 --shards 3 --shard-parallel ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--shard-parallel ${bad} exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "shard-parallel" OR NOT err MATCHES "meraligner --targets")
    message(FATAL_ERROR "--shard-parallel ${bad} did not print the usage message:\n${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --k 31 --ranks 4 --ppn 2 --shard-parallel 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "requires a sharded reference")
  message(FATAL_ERROR "--shard-parallel without shards was not rejected (rc=${rc}):\n${err}")
endif()

# --- 6. no derived files next to the inputs --------------------------------
# Scenarios 1-5 ran single-batch, multi-batch and sharded streams over the
# FASTQ fixtures; none may have converted them on disk.
check_no_derived_seqdb("scenarios 1-5")

# --- 7. cache persistence: save in one process, warm-load in another ---------
# The cold run snapshots its caches; a second process warm-starts from them.
# Persistence must change seconds, never bytes: both runs produce the same
# SAM (and the same golden SAM, since this is the scenario-1 configuration).
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_cachecold.sam
    --k 31 --ranks 4 --ppn 2 --no-permute
    --save-cache ${WORKDIR}/cache_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--save-cache run exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "caches saved to")
  message(FATAL_ERROR "--save-cache run did not report the snapshot:\n${err}")
endif()
if(NOT EXISTS ${WORKDIR}/cache_snapshot/session.mcache)
  message(FATAL_ERROR "--save-cache did not write cache_snapshot/session.mcache")
endif()

execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_cachewarm.sam
    --k 31 --ranks 4 --ppn 2 --no-permute
    --load-cache ${WORKDIR}/cache_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--load-cache run exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "warm caches loaded from")
  message(FATAL_ERROR "--load-cache run did not report the warm start:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_cachewarm.sam ${WORKDIR}/out_cachecold.sam
                  "warm-vs-cold")
check_sam(${WORKDIR}/out_cachewarm.sam "warm-started single batch")

# Sharded equivalent: one snapshot per shard, same bytes warm as cold.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_shardcachecold.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact --shards 3
    --save-cache ${WORKDIR}/shard_cache_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded --save-cache run exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT EXISTS ${WORKDIR}/shard_cache_snapshot/shard-0002.mcache)
  message(FATAL_ERROR "sharded --save-cache did not write one snapshot per shard")
endif()
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_shardcachewarm.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact --shards 3
    --load-cache ${WORKDIR}/shard_cache_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded --load-cache run exited with ${rc}\nstderr:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_shardcachewarm.sam
                  ${WORKDIR}/out_shardcachecold.sam "sharded warm-vs-cold")

# Bad cache flags are usage errors (exit 2 + usage), not silent cold starts:
# a missing snapshot directory, a snapshot recorded against a different index
# (other k), a snapshot in the retired version-1 format, and --save-cache
# without --reads.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --k 31 --ranks 4 --ppn 2 --load-cache ${WORKDIR}/no_such_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--load-cache on a missing dir exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "load-cache" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "missing-dir --load-cache did not print the usage message:\n${err}")
endif()

execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --k 21 --ranks 4 --ppn 2 --load-cache ${WORKDIR}/cache_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--load-cache with mismatched k exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "mismatch" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "mismatched --load-cache did not print the usage message:\n${err}")
endif()

# v1_snapshot/session.mcache is a genuine version-1 file for these fixtures
# (the header an older build wrote, with no cache sections): version 2
# changed the seed section's layout, so it must be refused by name.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --k 31 --ranks 4 --ppn 2 --load-cache ${FIXTURES}/v1_snapshot
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--load-cache on a version-1 snapshot exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "unsupported version 1" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "version-1 --load-cache did not print the usage message:\n${err}")
endif()

execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --save-cache ${WORKDIR}/cache_noreads
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--save-cache without --reads exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "missing required flag --reads" OR NOT err MATCHES "meraligner --targets")
  message(FATAL_ERROR "--save-cache without --reads did not print the usage message:\n${err}")
endif()

# --- 8. observability: --trace/--metrics change seconds, never bytes ---------
# An observed sharded run (trace + metrics + cache totals) must hit the same
# bytes as scenario 5's unobserved run, and both sidecar files must
# materialize.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_observed.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --no-exact --shards 3
    --shard-parallel 2 --stats
    --trace ${WORKDIR}/trace.json
    --metrics ${WORKDIR}/metrics.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observed run exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "trace written to" OR NOT err MATCHES "metrics written to")
  message(FATAL_ERROR "observed run did not report its sidecar files:\n${err}")
endif()
if(NOT err MATCHES "cache totals")
  message(FATAL_ERROR "--stats did not print the end-of-run cache totals:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_observed.sam ${WORKDIR}/out_sharded_j2.sam
                  "observed-vs-unobserved")
if(NOT EXISTS ${WORKDIR}/trace.json OR NOT EXISTS ${WORKDIR}/metrics.json)
  message(FATAL_ERROR "observed run did not write trace.json / metrics.json")
endif()
file(READ ${WORKDIR}/trace.json trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"" OR NOT trace_json MATCHES "\"ph\":\"X\"")
  message(FATAL_ERROR "trace.json is not Chrome Trace Event JSON:\n${trace_json}")
endif()
file(READ ${WORKDIR}/metrics.json metrics_json)
if(NOT metrics_json MATCHES "mera_shard_wall_seconds")
  message(FATAL_ERROR "metrics.json lacks the per-shard wall series:\n${metrics_json}")
endif()

# Prometheus export: --metrics-format prom writes text exposition format.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_observed_prom.sam
    --k 31 --ranks 4 --ppn 2 --no-permute
    --metrics ${WORKDIR}/metrics.prom --metrics-format prom
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--metrics-format prom run exited with ${rc}\nstderr:\n${err}")
endif()
file(READ ${WORKDIR}/metrics.prom metrics_prom)
if(NOT metrics_prom MATCHES "# TYPE mera_reads_processed_total counter")
  message(FATAL_ERROR "metrics.prom is not Prometheus text exposition:\n${metrics_prom}")
endif()
check_sam(${WORKDIR}/out_observed_prom.sam "single batch with --metrics")

# Unwritable sidecar targets are runtime failures (exit 1) that NAME the
# file, not silent successes: an unflushed/failed ofstream used to vanish
# into the exit path. A path under a regular file fails on open; /dev/full
# (where present) fails at flush — the later, sneakier variant.
file(WRITE ${WORKDIR}/not_a_dir "just a file\n")
foreach(flag trace metrics)
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --out ${WORKDIR}/out_badsidecar_${flag}.sam
      --k 31 --ranks 4 --ppn 2 --no-permute
      --${flag} ${WORKDIR}/not_a_dir/${flag}.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "--${flag} to an unwritable path exited ${rc}, expected 1:\n${err}")
  endif()
  if(NOT err MATCHES "not_a_dir/${flag}.json")
    message(FATAL_ERROR
      "--${flag} failure did not name the unwritable file:\n${err}")
  endif()
endforeach()
if(EXISTS /dev/full)
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --out ${WORKDIR}/out_devfull.sam
      --k 31 --ranks 4 --ppn 2 --no-permute
      --metrics /dev/full
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "--metrics /dev/full exited ${rc}, expected 1 (flush must be checked):\n${err}")
  endif()
  if(NOT err MATCHES "/dev/full")
    message(FATAL_ERROR "--metrics /dev/full failure did not name the file:\n${err}")
  endif()
endif()

# --quiet: same golden bytes, no informational stderr (errors still print).
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_quiet.sam
    --k 31 --ranks 4 --ppn 2 --no-permute --quiet
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--quiet run exited with ${rc}\nstderr:\n${err}")
endif()
if(err MATCHES "\\[meraligner\\]")
  message(FATAL_ERROR "--quiet did not silence the informational lines:\n${err}")
endif()
check_sam(${WORKDIR}/out_quiet.sam "single batch --quiet")

# Observability flag validation: all usage errors (exit 2 + usage), even
# under --quiet — usage errors always print. `extra` is a ;-list of flags
# appended to an otherwise valid invocation; `expect` the message fragment.
function(check_obs_usage_error extra expect)
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads.fastq
      --k 31 --ranks 4 --ppn 2 --quiet ${extra}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${extra}' exited ${rc}, expected usage error 2")
  endif()
  if(NOT err MATCHES "${expect}" OR NOT err MATCHES "meraligner --targets")
    message(FATAL_ERROR "'${extra}' did not print the usage message:\n${err}")
  endif()
endfunction()
check_obs_usage_error("--trace" "--trace expects a file path")
check_obs_usage_error("--metrics" "--metrics expects a file path")
check_obs_usage_error("--metrics-format;json" "--metrics-format requires --metrics")
check_obs_usage_error("--metrics;${WORKDIR}/m.json;--metrics-format;xml"
                      "--metrics-format expects json|prom")

# --- 9. even k: a seed can be its own reverse complement --------------------
# Every scenario above uses odd k, where no seed is a palindrome. --k 20 on
# the same fixtures is compared as raw bytes against its own checked-in SAM.
execute_process(
  COMMAND ${CLI}
    --targets ${WORKDIR}/contigs.fa
    --reads ${WORKDIR}/reads.fastq
    --out ${WORKDIR}/out_k20.sam
    --k 20 --ranks 4 --ppn 2 --no-permute
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--k 20 run exited with ${rc}\nstderr:\n${err}")
endif()
check_sam_against(${WORKDIR}/out_k20.sam ${FIXTURES}/meraligner_cli_k20.sam
                  "single batch --k 20")

# --- 10. emission order on mixed read lengths -------------------------------
# Five read lengths spread the candidates over several of the pooled queue's
# length classes, which flush out of discovery order; the emission log must
# still replay every record in discovery order. The fixture was generated by
# resolving each candidate inline, as it was discovered, so it pins that
# order on the default tier and on the scalar one. --no-exact sends every
# candidate through Smith-Waterman.
foreach(tier default scalar)
  set(tier_flags)
  if(NOT tier STREQUAL "default")
    set(tier_flags --sw-isa ${tier})
  endif()
  execute_process(
    COMMAND ${CLI}
      --targets ${WORKDIR}/contigs.fa
      --reads ${WORKDIR}/reads_mixed.fastq
      --out ${WORKDIR}/out_mixed_${tier}.sam
      --k 31 --ranks 4 --ppn 2 --no-permute --no-exact ${tier_flags}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mixed-length ${tier} run exited with ${rc}\nstderr:\n${err}")
  endif()
  check_sam_against(${WORKDIR}/out_mixed_${tier}.sam
                    ${FIXTURES}/meraligner_cli_mixed.sam
                    "mixed-length reads, ${tier} tier")
endforeach()

# Every run above, scenarios 7 to 10 included, read its FASTQ into memory.
check_no_derived_seqdb("all runs")
